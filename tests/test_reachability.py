"""Every function, class and method in `src/crcmlab` is reached from what the
lab runs: the command line (`cli_runner.main` and the module code of
`cli_runner`, which builds `COMMANDS`) and the chain API (`new_chain`,
`bd_step`, `run_chain`).

The walk is by name, so it over-approximates: a reached body that mentions
a name, as a variable or an attribute, reaches every module-level function,
class and binding of that name, and every method of that name in a reached
class.  A reached class reaches its bases, decorators and class-level
statements, and its dunder methods, which Python calls implicitly.

A definition nothing reaches fails the test unless `ALLOWED` names it, with
the ROADMAP direction that will give it a caller (or delete it), or "tests
only".  An entry the walk reaches fails too, so the list can only shrink."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crcmlab"
ROOTS = {"main", "new_chain", "bd_step", "run_chain"}

# what each unreached definition waits for: a ROADMAP direction number, or
# "tests only" for a formula or helper that only tests call
ALLOWED = {
    # direction 4, `calibrate`: the Wilson interval of a rejection rate
    "_stats.wilson_interval": "4",
    # direction 6, the exact component-colour test
    "widom_rowlinson.fk_colorize": "6",
    "widom_rowlinson.col_event": "6",
    # direction 7 rebinds the benchmark harness, which alone binds these
    "connectivity.count_components": "7",
    "connectivity.local_cc": "7",
    "connectivity._probe_levels": "7",
    "connectivity.LocalCCResult": "7",
    "geometry.SpatialIndex.candidates": "7",
    "model_core.Configuration.from_balls": "7",
    "widom_rowlinson.wr_step": "7",
    "widom_rowlinson.run_wr_chain": "7",
    "widom_rowlinson.gnz_residual_wr": "7",
    # direction 8, a subcommand per criterion: the oracle, domination and entropy
    "_stats.weighted_ratio_estimate": "8",
    "crcm.importance_oracle": "8",
    "crcm.OracleResult": "8",
    "crcm._reference_draws": "8",
    "crcm._log_weight_summary": "8",
    "crcm.DegenerateWeights": "8",
    "crcm.domination_check": "8",
    "crcm.DominationRow": "8",
    "crcm.entropy_report": "8",
    "crcm.EntropyReport": "8",
    # direction 8, the shield (criterion 7) and entropy (criterion 8) formulas
    "analysis.shield_event_Wk": "8",
    "analysis.psi": "8",
    "analysis.psi_prime": "8",
    # direction 16, free against wired exteriors: the exterior's sampler
    "model_core.sample_boolean_with_halo": "16",
    # paper formulas and helpers that only tests evaluate
    "analysis.exterior_hit_mass": "tests only",
    "model_core.load_configuration": "tests only",
}


def definitions() -> dict[str, tuple[ast.AST, str | None]]:
    """{"module.name" or "module.Class.method": (node, its class or None)}
    for every module-level function, class and binding and every method,
    outside `__init__.py`."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[f"{path.stem}.{t.id}"] = (node, None)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = f"{path.stem}.{node.name}"
                defs[key] = (node, None)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            defs[f"{key}.{item.name}"] = (item, key)
    return defs


def mentions(node: ast.AST) -> set[str]:
    """Every name and attribute `node` mentions.  Of a class, not what its
    methods' bodies mention: a method is reached on its own."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        if isinstance(n, ast.ClassDef):
            for child in ast.iter_child_nodes(n):
                is_method = isinstance(child, ast.FunctionDef)
                stack.extend([*child.decorator_list, child.args] if is_method else [child])
        else:
            stack.extend(ast.iter_child_nodes(n))
    return found


def reached(defs: dict) -> set[str]:
    # the roots: the module code of `cli_runner` (its imports bind names and
    # mention none) and the names of the entry points
    names = set(ROOTS)
    for node in ast.parse((SRC / "cli_runner.py").read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names |= mentions(node)
    seen: set[str] = set()
    grew = True
    while grew:
        grew = False
        for key, (node, owner) in defs.items():
            name = key.rsplit(".", 1)[1]
            if key in seen or (owner is not None and owner not in seen):
                continue
            dunder = name.startswith("__") and name.endswith("__")
            if name in names or owner is not None and dunder:
                seen.add(key)
                names |= mentions(node)
                grew = True
    return seen


def unreached() -> set[str]:
    defs = definitions()
    return {key for key, (node, _) in defs.items()
            if not isinstance(node, (ast.Assign, ast.AnnAssign))} - reached(defs)


def test_every_definition_is_reached_or_allowed():
    assert sorted(unreached() - set(ALLOWED)) == []


def test_no_allowed_definition_is_reached():
    assert sorted(set(ALLOWED) - unreached()) == []


def test_every_allowance_names_a_direction():
    assert set(ALLOWED.values()) <= {"4", "6", "7", "8", "16", "tests only"}


def test_every_value_error_subclass_is_caught_by_name():
    # a subclass that no `except` in `src/` names tells a caller nothing a
    # plain ValueError does not, so it is folded into ValueError
    nodes = [n for path in SRC.glob("*.py") for n in ast.walk(ast.parse(path.read_text()))]
    bases = {n.name: set().union(*map(mentions, n.bases))
             for n in nodes if isinstance(n, ast.ClassDef)}
    errors = {"ValueError"}
    while grown := {name for name, of in bases.items() if of & errors} - errors:
        errors |= grown
    caught = set().union(*(mentions(n.type) for n in nodes
                           if isinstance(n, ast.ExceptHandler) and n.type is not None))
    assert sorted(errors - caught - {"ValueError"}) == []
