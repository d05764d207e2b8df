"""Every module-level function and class of the package has a caller.

A definition counts as used when src/, scripts/ or perfbench/*.py names it
outside its own body: as a name, an attribute, an imported name or a word
of a string (the benchmark's span tracer names functions in strings such
as "crf.viterbi_path"). Docstrings do not count, and neither do the tests,
so a function that only the tests call fails here.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "titletag"
PROGRAM = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
           *(ROOT / "perfbench").glob("*.py")]

# Definitions no program code calls, each kept for a reason.
ALLOWED = {
    "log_partition_scores": "the forward algorithm alone, which the CRF kernel tests check",
    "decode_bioes": "the strict BIOES well-formedness oracle of the labeling tests",
    "human_baseline": "the paper's human row, to be printed in the comparison table",
}


def names_in(node) -> Counter:
    """How often each identifier is named under node, docstrings aside."""
    docstrings = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = sub.body[0] if sub.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant):
                docstrings.add(id(doc.value))
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            found.update(re.findall(r"\w+", sub.value))
    return found


def test_every_package_definition_is_named_by_the_program():
    named: Counter = Counter()
    for path in PROGRAM:
        named += names_in(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and named[node.name] == names_in(node)[node.name]):
                uncalled[node.name] = f"{path.stem}.{node.name}"
    assert sorted(uncalled[name] for name in set(uncalled) - set(ALLOWED)) == []
    # An allowed definition that gains a caller leaves the list.
    assert set(ALLOWED) - set(uncalled) == set()
