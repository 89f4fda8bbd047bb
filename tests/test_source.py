"""Rules the library source keeps."""

import ast
import gc
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import acygroups
from acygroups import cli
from acygroups.acyclicity import find_coset_cycle
from acygroups.constraint import find_i_coset_cycle
from acygroups.covering import (
    Hypergraph,
    check_n_acyclic_hypergraph,
    hypergraph_cover,
    intersection_graph,
    verify_cover,
)
from acygroups.egraph import disjoint_union, hypercube
from acygroups.errors import ResourceCap
from acygroups.groupoid import (
    ConstraintPattern,
    find_groupoid_coset_cycle,
    groupoid_from_group,
    hat_translation,
)
from acygroups.groups import sym
from acygroups.synthesis import SynthesisConfig, construct_n_acyclic

from conftest import corpus, trivial_constraint_graph
from test_golden import CASES, run_cases


def _modules(directory=Path(acygroups.__file__).parent):
    """(file name, syntax tree) of every module of the library, or of the
    modules in directory."""
    for path in sorted(directory.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_library():
    # python -O strips assert statements, which would silently skip a check
    offenders = []
    for name, tree in _modules():
        offenders += [
            f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def _importers(top):
    """name:line of every import of the top-level module top in the library."""
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == top for module in imported):
                found.append(f"{name}:{node.lineno}")
    return found


def test_library_does_not_import_sympy():
    # sympy is a test oracle only; the library must run without it
    assert _importers("sympy") == []


def test_only_the_cli_imports_gc():
    # the collector is interpreter-wide state: the CLI, which owns the
    # process, pauses it for each command, and no library function changes it
    assert [found.split(":")[0] for found in _importers("gc")] == ["cli.py"]


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is made public where it lives, so a
    # leading underscore keeps meaning "used by this module alone"
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                offenders += [
                    f"{name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_no_function_body_imports():
    # a module imports at its top, where its dependencies show and where an
    # import cycle between modules fails at once instead of hiding in a body
    offenders = []
    for name, tree in _modules():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{name}:{node.lineno}" for node in ast.walk(func)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def _called_name(node):
    """The name a call node calls, bare or as an attribute, or None."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_whole_table_gathers_and_forcings_stay_in_the_kernels():
    # list(map(x.__getitem__, y)) and tuple(map(x.__getitem__, y)) make a
    # Python call per element, and so does a step function per edge: whole
    # tables are read by traverse.gather and forced through propagate's
    # target tables, which make none
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = _called_name(node)
            if called in ("list", "tuple") and any(
                    isinstance(arg, ast.Call) and _called_name(arg) == "map" and arg.args
                    and getattr(arg.args[0], "attr", None) == "__getitem__"
                    for arg in node.args):
                offenders.append(f"{name}:{node.lineno} {called}(map(...__getitem__, ...))")
            if called == "propagate" and any(
                    isinstance(arg, ast.Lambda)
                    for arg in [*node.args, *(k.value for k in node.keywords)]):
                offenders.append(f"{name}:{node.lineno} propagate(..., lambda)")
    assert offenders == []


def _functions(tree):
    """(qualified name, node) of every module-level function and every
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{meth.name}", meth) for meth in node.body
                        if isinstance(meth, ast.FunctionDef))


def test_no_constructor_branches_on_the_type_of_an_argument():
    # each constructor takes its arguments in one form
    offenders = [f"{name}:{node.lineno} {qualified}"
                 for name, tree in _modules() for qualified, func in _functions(tree)
                 if qualified.endswith(".__init__")
                 for node in ast.walk(func)
                 if isinstance(node, ast.Call) and _called_name(node) == "isinstance"]
    assert offenders == []


def test_only_the_word_forests_walk_bfs_parents():
    # a group's or groupoid's parent links are derived once, when first
    # read; reach is checked by Cosets, which builds no links
    callers = {f"{name[:-3]}.{qualified}"
               for name, tree in _modules() for qualified, func in _functions(tree)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and _called_name(node) == "bfs_parents"}
    assert callers == {"groups.EGroup.parents", "groupoid.IGroupoid.parents",
                       "constraint.TranslatedCosets.__init__"}


def test_each_refusal_is_raised_in_one_place():
    # the transitivity check of every quotient and the order bound of every
    # stage group are each written once, so a fix or a message change is
    # made once
    sites = {"transitivity": [], "order bound": []}
    for name, tree in _modules():
        for qualified, func in _functions(tree):
            for node in ast.walk(func):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                where = f"{name[:-3]}.{qualified}"
                exc = node.exc
                if isinstance(exc, ast.Call) and _called_name(exc) == "TransitivityViolation":
                    sites["transitivity"].append(where)
                if "exceeded: the group has order at least" in ast.unparse(node):
                    sites["order bound"].append(where)
    assert sites == {"transitivity": ["amalgam.one_step_classes"],
                     "order bound": ["groups._check_order_bound"]}


def _own_scope(func):
    """The nodes of func's own scope: the bodies of nested functions,
    lambdas and classes are left out."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_function_assigns_a_local_it_never_reads():
    # a local nobody reads is dead work or a forgotten argument, in the
    # library and in its tests; a read in a nested function counts, and _
    # names a value dropped on purpose
    offenders = []
    for name, tree in [*_modules(), *_modules(Path(__file__).parent)]:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored = {node.id: node.lineno for node in _own_scope(func)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            offenders += [f"{name}:{line} {func.name} {local}" for local, line in stored.items()
                          if local != "_" and local not in read]
    assert offenders == []


def test_no_function_has_a_parameter_it_never_reads():
    # an argument nobody reads is a dead argument its callers still pass; a
    # read in a nested function counts, and self, cls and _ names are exempt
    offenders = []
    for name, tree in _modules():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = func.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            offenders += [f"{name}:{func.lineno} {getattr(func, 'name', 'lambda')} {p.arg}"
                          for p in params
                          if p.arg not in ("self", "cls") and not p.arg.startswith("_")
                          and p.arg not in read]
    assert offenders == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module uses what it imports
    offenders = []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        offenders += [f"{name}:{line} {imp}" for imp, line in imported.items() if imp not in used]
    assert offenders == []


def _public_definitions(trees):
    """(qualified name, file, node) of every public module-level function,
    class and assigned name of the (file, tree) pairs, and of every public
    method of a public class."""
    for name, tree in trees:
        for node in tree.body:
            found = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{meth.name}", meth) for meth in node.body
                          if isinstance(meth, ast.FunctionDef)]
            elif isinstance(node, ast.Assign):
                found += [(target.id, node) for target in node.targets
                          if isinstance(target, ast.Name)]
            yield from ((qualified, name, found_node) for qualified, found_node in found
                        if not any(part.startswith("_") for part in qualified.split(".")))


# public names that no library module, CLI command or benchmark file refers
# to, each kept for the reason given
UNREFERENCED_PUBLIC = {
    "groups.homomorphism": "perfbench/tracer.py times it by name",
    "groupoid.translate_groupoid_cycle": "groupoids past one edge pair (ROADMAP item 7)",
    "groupoid.sym_igraph": "groupoids past one edge pair (ROADMAP item 7)",
    "groupoid.groupoid_cayley": "groupoids past one edge pair (ROADMAP item 7)",
    "serialize.igraph_to_json": "writes the igraph format that load_document reads",
    "serialize.graph_to_json": "writes the graph format that load_document reads",
}


def test_every_public_name_has_a_caller():
    # the library holds what its pipelines run: a public module-level name
    # or a public class's public method that nothing in the library, the
    # CLI or perfbench/ refers to outside its own definition belongs in the
    # tests; __init__ only re-exports, so its imports are no reference
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    trees = [(name, tree) for name, tree in _modules() if name != "__init__.py"]
    references = []  # (name, file, line)
    for name, tree in [*trees, *_modules(bench)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.append((node.id, name, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                references += [(alias.name, name, node.lineno) for alias in node.names]
    unreferenced = set()
    for qualified, file, node in _public_definitions(trees):
        attr = qualified.rsplit(".", 1)[-1]
        if not any(ref == attr and not (ref_file == file and node.lineno <= line <= node.end_lineno)
                   for ref, ref_file, line in references):
            unreferenced.add(f"{file[:-3]}.{qualified}")
    assert unreferenced == set(UNREFERENCED_PUBLIC)


# public functions and methods that no golden case enters, each kept for the
# reason given
UNRUN_PUBLIC = {
    **UNREFERENCED_PUBLIC,
    "groupoid.HatTranslation.subset": "only translate_groupoid_cycle calls it (ROADMAP item 7)",
    "serialize.igroupoid_from_json": "no golden case reads a groupoid document back",
}


def test_every_public_function_runs_under_the_cli(capsys, monkeypatch, tmp_path):
    # the library holds what its commands run: the golden cases, and one
    # construct deep enough to reach EGroup.coset through an interior chain
    # position, enter every public function and method but the allowed ones
    entered = set()  # (code file, first line)

    def profile(frame, event, _arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cases = (*CASES, ("construct-5", "construct square_g.json -N 5 -o c5.json"))
    cli.build_parser.cache_clear()  # an earlier test may have built the parser
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_cases(cases, capsys, monkeypatch, tmp_path)
    finally:
        sys.setprofile(previous)
    entered = {(Path(file).resolve(), line) for file, line in entered}
    root = Path(acygroups.__file__).resolve().parent
    unrun = set()
    for qualified, file, node in _public_definitions(_modules()):
        if not isinstance(node, ast.FunctionDef):
            continue
        # a decorated function's code starts at its first decorator
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        if (root / file, first) not in entered:
            unrun.add(f"{file[:-3]}.{qualified}")
    assert unrun == set(UNRUN_PUBLIC)


def test_every_traced_name_resolves(monkeypatch):
    # perfbench/tracer.py patches functions by name: a module entry must be
    # an attribute of its module, and a Class.meth entry must sit in the
    # class's own __dict__, or a traced benchmark run fails on install
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    entries = [(module, attr) for module, attr, *_ in tracer.TIMED + tracer.COUNTED]
    assert entries
    missing = []
    for module_name, attr in entries:
        module = importlib.import_module(f"acygroups.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = vars(module).get(cls_name)
            found = isinstance(owner, type) and meth in vars(owner)
        else:
            found = callable(vars(module).get(attr))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_the_tracer_hooks_bind_on_a_small_traced_pass(monkeypatch, tmp_path, capsys):
    # the tracer's hooks bind find_coset_cycle's arguments by name (gamma,
    # allow_full, n_max) and read results by attribute; cli.main turns a
    # hook's exception into exit 4, so the exit codes and the derived
    # counts show that they bind
    from acygroups import serialize as ser

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer_module)

    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    for name, doc in (("square.json", ser.egraph_to_json(hypercube(["a", "b"]))),
                      ("tri.json", ser.hypergraph_to_json(tri)),
                      ("tri_t.json", ser.egraph_to_json(intersection_graph(tri)))):
        (tmp_path / name).write_bytes(ser.canonical_bytes(doc))
    monkeypatch.chdir(tmp_path)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv.split()) for argv in (
            "symgroup square.json --no-hypercube -o g.json",
            "construct g.json -N 4 -o tower.json",
            "check-acyclic g.json -N 4 --gamma 2",
            "symgroup tri_t.json -o tri_g.json",
            "construct tri_g.json -N 4 --over tri_t.json --early-exit -o over.json",
            "cover-hypergraph tri.json over.json -o cov.json",
            "verify-cover cov.json -N 4",
        )]
    finally:
        tracer.restore()
    assert codes == [0, 0, 1, 0, 0, 0, 0], capsys.readouterr().err
    metrics = tracer.metrics()
    for name in ("groups.closure_elements", "acyclicity.find_coset_cycle.calls",
                 "synthesis.components_kept", "covering.cover_vertices"):
        assert metrics.get(name, 0) > 0, name


def test_commands_do_their_io_through_the_runner():
    # a command reads and writes through the runner main hands it, which
    # writes the manifest once; no cmd_* opens a file or writes a manifest
    tree = ast.parse((Path(acygroups.__file__).parent / "cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) >= 10
    offenders = []
    for command in commands:
        for node in ast.walk(command):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "open" or "manifest" in name:
                offenders.append(f"{command.name}:{node.lineno} {name}")
    assert offenders == []


def test_no_schema_error_points_at_the_member_named_empty():
    # in RFC 6901 the pointer "" names the whole document and "/" the member
    # named "", so a whole-document error leaves the pointer at its default
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")) != "SchemaError":
                continue
            pointers = node.args[1:2] + [k.value for k in node.keywords if k.arg == "pointer"]
            if any(isinstance(p, ast.Constant) and p.value == "/" for p in pointers):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_no_nested_function_refers_to_itself():
    # a nested function that calls itself holds itself through its closure:
    # it and everything it closes over stay alive until a full collection
    offenders = []
    for name, tree in _modules():
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                    offenders.append(f"{name}:{inner.lineno} {inner.name}")
    assert offenders == []


def _cyclic_garbage(run):
    """The type names of the objects that run() leaves in reference cycles."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_searches_and_a_capped_construct_leave_no_cyclic_garbage():
    def plain():
        find_coset_cycle(corpus()["biggs_3_1"], 4)

    def template():
        group = corpus()["biggs_3_1"]
        find_i_coset_cycle(group, trivial_constraint_graph(group.colors), 4)

    def groupoid():
        pattern = ConstraintPattern(
            ["s", "t"],
            [("e", "s", "t", "ei"), ("ei", "t", "s", "e"),
             ("f", "s", "t", "fi"), ("fi", "t", "s", "f")],
        )
        hat = hat_translation(pattern)
        gpd = groupoid_from_group(sym(hat.igraph, attach_hypercube=False), hat)
        find_groupoid_coset_cycle(gpd, 4)

    def capped_construct():
        config = SynthesisConfig(n_acyclic=4, early_exit=True)
        try:
            construct_n_acyclic(corpus()["cube_3"], config)
        except ResourceCap:
            pass
        else:
            raise AssertionError("the construct was not capped")

    tri = Hypergraph([0, 1, 2], [[0, 1], [1, 2], [0, 2]])
    ig = intersection_graph(tri)
    seed = sym(disjoint_union([ig, hypercube(ig.colors)]), attach_hypercube=False)
    cover_group, _ = construct_n_acyclic(seed, SynthesisConfig(n_acyclic=4, early_exit=True),
                                         ig)

    def cover():
        cov = hypergraph_cover(tri, cover_group)
        if not verify_cover(cov).ok or not check_n_acyclic_hypergraph(cov.cover, 4)[0]:
            raise AssertionError("the triangle cover does not check")

    for run in (plain, template, groupoid, capped_construct, cover):
        assert _cyclic_garbage(run) == [], run.__name__


def test_every_command_leaves_no_cyclic_garbage(capsys, monkeypatch, tmp_path):
    # cli.main pauses the collector for a command on this premise: every
    # golden case (each subcommand, exits 0 to 3) run again on the files the
    # first round left, after that round built the parser, leaves nothing a
    # collection would free
    run_cases(CASES, capsys, monkeypatch, tmp_path)
    for case in CASES:
        assert _cyclic_garbage(lambda: run_cases((case,), capsys, monkeypatch, tmp_path)) == [], \
            case[0]


def test_the_version_is_written_once():
    # pyproject.toml reads the package version from serialize.TOOL_VERSION,
    # the version the manifests carry, instead of repeating it
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "acygroups.serialize.TOOL_VERSION"
    module, name = attr.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == acygroups.__version__
