"""The library's surface: what a job, the benchmark or the README library
tour reaches, and nothing else."""

import ast
import re
from pathlib import Path

from binorms import groups, norms

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
TOUR = README.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]

# The ready-made context constructors are the library's way to build each
# context, one line each, whether or not the library itself calls one.
UNCALLED_BY_DESIGN = {
    "integer_line_context", "lattice_context", "free_cancellation_context",
    "symmetric_transposition_context", "heisenberg_context", "commutator_length_context",
}


def test_library_tour_gives_its_commented_results():
    namespace = {}
    exec(TOUR, namespace)
    commented = [line.split("#") for line in TOUR.splitlines() if "#" in line]
    expected = [2, "undistorted", (6, 6)]
    assert [ast.literal_eval(comment.strip()) for _, comment in commented] == expected
    assert [eval(expr, namespace) for expr, _ in commented] == expected


def _names_used(tree):
    """Every name a tree reads: variables, attributes, and identifiers
    spelled as strings (the benchmark's tracer wraps functions by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_library_definition_is_named_somewhere_else():
    """A top-level function or class, or a method, of ``src/binorms`` must be
    named in the library, ``perfbench/`` or the tour besides its own
    definition; a re-export in ``__init__.py`` does not count."""
    parse = lambda path: ast.parse(path.read_text(encoding="utf-8"))
    trees = {path: parse(path) for path in sorted((ROOT / "src" / "binorms").glob("*.py"))}
    used = set()
    for tree in [*trees.values(), ast.parse(TOUR), *map(parse, (ROOT / "perfbench").rglob("*.py"))]:
        used.update(_names_used(tree))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defn in [node, *members]:
                if (isinstance(defn, (ast.FunctionDef, ast.ClassDef)) and not defn.name.startswith("__")
                        and defn.name not in used | UNCALLED_BY_DESIGN):
                    unused.append(f"{path.name}:{defn.lineno} {defn.name}")
    assert unused == []


# A README quote of a constant of ``binorms.norms`` or ``binorms.groups``:
# its name, with or without a module prefix, then "= value" or "(value)",
# the value an integer with thousands commas or a power such as 2^18.
CONSTANT_QUOTE = re.compile(r"`(?:binorms\.)?(?:(norms|groups)\.)?([A-Z][A-Z0-9_]+)`\s*"
                            r"(?:=\s*|\()(\d[\d,]*)(?:\^(\d+))?")


def test_readme_quotes_the_constants_values():
    quotes = CONSTANT_QUOTE.findall(README)
    assert len(quotes) >= 8
    for prefix, name, base, exponent in quotes:
        modules = [m for m in (norms, groups) if prefix in ("", m.__name__.rsplit(".", 1)[1])]
        values = [getattr(m, name) for m in modules if hasattr(m, name)]
        quoted = int(base.replace(",", "")) ** int(exponent or 1)
        assert values and all(v == quoted for v in values), (name, base, exponent, values)
