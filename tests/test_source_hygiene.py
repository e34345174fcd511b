"""Source hygiene: no unused import, and no top-level function or class in
src/ that nothing else in src/ references, besides the public names below.

A name counts as referenced when another top-level statement of any module
reads it (as a name or an attribute); its own definition, imports and
``__all__`` entries do not count.  A module reads one of its imports when
any of its statements reads it or its ``__all__`` re-exports it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "viscobessel"

# the public names that tests/test_acceptance.py imports (ROADMAP ground
# rules), the evaluators that perfbench's traced run reads, and the writer
# of the load CSVs that read_load_history (simulate --input) reads
PUBLIC = {
    "invert_talbot", "bessel_J_time", "bessel_G_time", "asym_J_time", "asym_G_time",
    "eval_J_curve", "eval_G_curve", "glass_limits", "laplace_sJ", "laplace_sG",
    "reciprocity_residual", "short_time_agreement", "interconversion_check",
    "simulate_asymptotic", "LoadHistory", "bessel_j", "bessel_j_zeros",
    "mittag_leffler_half", "mittag_leffler_series",
    "creep_integral_curve", "relax_integral_curve", "write_history",
}


def _modules():
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.rglob("*.py"))}


def _reads(node) -> set:
    """The names and attributes a statement reads."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _exported(tree) -> set:
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def _imported(node) -> list:
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        read = _reads(tree) | _exported(tree)
        unused += [f"{name}:{node.lineno} {alias}" for node in imports
                   for alias in _imported(node) if alias not in read]
    assert unused == []


def test_every_top_level_definition_is_referenced():
    modules = _modules()
    reads = []  # (module, statement, names it reads)
    for name, tree in modules.items():
        reads += [(name, node, _reads(node)) for node in tree.body
                  if not isinstance(node, (ast.Import, ast.ImportFrom))]
    unreferenced = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in PUBLIC
        and not any(node.name in names for _, other, names in reads if other is not node)
    ]
    assert unreferenced == []


def test_each_argument_rule_is_written_once():
    # the order, count and transform-variable rules live in errors.check_order,
    # errors.check_count and params.transform_root, and every layer calls them
    text = {path.relative_to(SRC).as_posix(): path.read_text() for path in SRC.rglob("*.py")}
    for rule, home in [("nu <= -1.0", "errors.py"), ("numbers.Integral", "errors.py"),
                       ("must be an integer", "errors.py"), ("s**0.5", "models/params.py"),
                       ("outside the transform domain", "models/params.py")]:
        assert [name for name, src in text.items() if rule in src] == [home], rule


def test_family_parameters_are_written_only_in_params():
    # PARAMS is the one home of each family's parameter names: no other
    # module spells a family's parameter tuple or a table keyed on all of them
    from viscobessel.models.params import PARAMS

    tuples = set(PARAMS.values())
    fields = {k for names in PARAMS.values() for k in names}
    spelled = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List)):
                items = [e.value if isinstance(e, ast.Constant) else None for e in node.elts]
                hit = tuple(items) in tuples
            elif isinstance(node, ast.Dict):
                hit = {k.value for k in node.keys if isinstance(k, ast.Constant)} == fields
            else:
                continue
            if hit:
                spelled.append(f"{name}:{node.lineno}")
    assert spelled and all(place.startswith("models/params.py:") for place in spelled), spelled
