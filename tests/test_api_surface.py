"""No src/ API for tests alone: every top-level function and class of
``src/sonsim`` is named in the program beyond its own definition and the
package's ``__all__``.

A name counts where a module of ``src/sonsim`` (other than the package's
``__init__``, which only re-exports) or of ``perfbench/`` refers to it in
code, or where ``perfbench/tracing.py`` lists it in ``TARGETS``, the
functions a traced benchmark run wraps by name.  Docstrings and comments
do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sonsim"
PERFBENCH = ROOT / "perfbench"

# Names that stay with no caller in the program, each with its reason.
# ``run_single`` is in ``TARGETS`` too, but no benchmark run calls it.
KEPT = {
    "run_single": "the acceptance criterion c07 calls it, and its file stays as it is",
}


def top_level_names(path: Path) -> list[str]:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def referenced_names(path: Path) -> set[str]:
    """Every identifier ``path`` reads, imports or reaches as an attribute;
    a definition's own name is not among them."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def traced_names() -> set[str]:
    """The first part of every qualified name of ``TARGETS``, read from the
    source, so a method's class is named too."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    [targets] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    return {qualname.split(".")[0] for _, qualname in ast.literal_eval(targets)}


def program_names() -> set[str]:
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += PERFBENCH.glob("*.py")
    return set().union(traced_names(), *map(referenced_names, paths))


def test_every_src_name_is_named_in_the_program():
    named = program_names()
    unnamed = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
               for name in top_level_names(path) if name not in named and name not in KEPT]
    assert not unnamed, unnamed


def test_every_kept_name_still_exists():
    defined = {name for path in SRC.glob("*.py") for name in top_level_names(path)}
    assert set(KEPT) <= defined


def test_the_check_sees_a_test_only_helper(tmp_path):
    # a function only a test would call is flagged; its own definition and
    # a docstring naming it do not count
    module = tmp_path / "module.py"
    module.write_text('def helper():\n    """helper"""\n\n\ndef used():\n    return 1\n\n\n'
                      'VALUE = used()\n')
    assert top_level_names(module) == ["helper", "used"]
    assert "helper" not in referenced_names(module)
    assert "used" in referenced_names(module)
