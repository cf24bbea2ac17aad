"""Module layering: imports run one way and sit at module level, and one
function builds every plan.

The package is layered cli/sim/verify -> scheme -> capacity -> graphs.  A
function-local import is how a cycle usually sneaks back in, so both are
checked from the source text.  Each name is imported from the module that
defines it, never passed through a sibling that only imports it, and the
package exports no helper that only tests call.  `scheme._plan` alone
decides which messages a plan's lengths name, so no other code calls
`SchemePlan(...)`.  A plan gives every message it names one length, so
other modules read `plan.length` and only `scheme` reads the `lengths`
mapping.  A plan checks when built that it can be sent, so only `scheme`
raises `UnresolvableRef` and no module catches it.  Only `cli.main` writes
output, so every `print` call is in it, and only `cli` touches Python's
int-to-string digit limit, which it lifts while a verdict is rendered and
nowhere else.  `graphs.FAMILIES` alone says which families a server count
names, so no other module assigns a `FAMILIES` of its own.
"""

import ast
from pathlib import Path

import localpir

SRC = Path(localpir.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
           for p in sorted(SRC.glob("*.py"))}


def _internal_targets(node: ast.ImportFrom) -> set[str]:
    """Package modules named by a relative or absolute localpir import."""
    if node.level == 0 and not (node.module or "").startswith("localpir"):
        return set()
    base = (node.module or "").removeprefix("localpir").lstrip(".")
    if base:
        return {base.split(".")[0]}
    return {alias.name for alias in node.names if alias.name in MODULES}


def _import_graph() -> dict[str, set[str]]:
    graph = {}
    for name, tree in MODULES.items():
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                deps |= _internal_targets(node)
            elif isinstance(node, ast.Import):
                deps |= {a.name.split(".")[1] for a in node.names
                         if a.name.startswith("localpir.")}
        graph[name] = deps - {name}
    return graph


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.{fn.name} line {node.lineno}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_internal_imports_form_no_cycle():
    graph = _import_graph()
    done, active = set(), []

    def visit(mod):
        if mod in active:
            cycle = active[active.index(mod):] + [mod]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if mod in done:
            return
        active.append(mod)
        for dep in sorted(graph.get(mod, ())):
            visit(dep)
        active.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)


def _defined(tree: ast.Module) -> set[str]:
    """Names a module binds at top level other than by importing them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names |= {t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                      and isinstance(t.ctx, ast.Store)}
    return names


def test_every_name_is_imported_from_the_module_defining_it():
    defined = {name: _defined(tree) for name, tree in MODULES.items()}
    found = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = (node.module or "").removeprefix("localpir").lstrip(".")
            if base in defined and _internal_targets(node):
                found += [f"{name} takes {alias.name} from {base}"
                          for alias in node.names
                          if alias.name not in defined[base]]
    assert found == []


def test_the_package_exports_no_test_only_helper():
    assert not {"is_prime", "bipartite_lower_bound"} & set(localpir.__all__)


def _builds_a_plan(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name == "SchemePlan"


def test_only_the_plan_constructor_calls_schemeplan():
    constructor = next(fn for fn in MODULES["scheme"].body
                       if getattr(fn, "name", None) == "_plan")
    allowed = {id(node) for node in ast.walk(constructor)}
    found = [f"{name} line {node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if _builds_a_plan(node) and id(node) not in allowed]
    assert found == []


def test_only_scheme_reads_a_plans_lengths():
    # A class reading its own field through `self` is not reading a plan.
    found = [f"{name} line {node.lineno}" for name, tree in MODULES.items()
             if name != "scheme" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "lengths"
             and not (isinstance(node.value, ast.Name)
                      and node.value.id == "self")]
    assert found == []


def _names(node: ast.AST | None) -> set[str]:
    """The names an expression uses, a dotted one by its last part."""
    if node is None:
        return set()
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_scheme_raises_unresolvable_ref_and_nothing_catches_it():
    raised = sorted({name for name, tree in MODULES.items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Raise)
                     and "UnresolvableRef" in _names(node.exc)})
    caught = [f"{name} line {node.lineno}" for name, tree in MODULES.items()
              for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler)
              and "UnresolvableRef" in _names(node.type)]
    assert raised == ["scheme"]
    assert caught == []


def _is_print(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print")


def _touches_the_digit_limit(node: ast.AST) -> bool:
    text = (node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else node.value if isinstance(node, ast.Constant) else "")
    return "_int_max_str_digits" in str(text)


def test_only_the_cli_prints_or_touches_the_digit_limit():
    writer = next(fn for fn in MODULES["cli"].body
                  if getattr(fn, "name", None) == "main")
    allowed = {id(node) for node in ast.walk(writer)}
    found = [f"{name}: {ast.unparse(node)}" for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if _is_print(node) and id(node) not in allowed
             or _touches_the_digit_limit(node) and name != "cli"]
    assert found == []


def test_only_graphs_assigns_families():
    found = sorted({name for name, tree in MODULES.items()
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    and "FAMILIES" in {t.id for t in ast.walk(node)
                                       if isinstance(t, ast.Name)
                                       and isinstance(t.ctx, ast.Store)}})
    assert found == ["graphs"]
