"""Every module-level function, class and public method of the package
has a caller.

A definition counts as used when src/ or perfbench/*.py names it
outside its own body: as an attribute, an imported name, a bare name that
its file imports or binds at module level (a local variable of the same
name does not count), or a `module.name` reference in strings, the forms
in which the benchmark names functions: dotted in one string
("crf.viterbi_path", "lstm.LstmCell.run") or as a module string followed
by a name string among one call's arguments (Target("crf",
"viterbi_path")). Other words of a string do not count, so a message such
as "final perplexity:" names nothing. Docstrings do not count, and neither
do the tests, so a function that only the tests call fails here.

A public method (a function in a module-level class whose name does not
start with "_") counts as used only where its name follows a dot outside
its own body: as an attribute (`model.predict`) or in one of those string
forms ("crf.CrfModel.featurize"). A bare name or an import of the same
name does not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "titletag"
PROGRAM = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# Definitions no program code calls, each kept for a reason.
ALLOWED = {
    "decode_bioes": "the strict BIOES well-formedness oracle of the labeling tests",
    "human_baseline": "the paper's human row, to be printed in the comparison table",
}


def module_bindings(tree: ast.Module) -> set:
    """Names the module imports (at any depth) or binds at its top level."""
    bound = {(sub.asname or sub.name).partition(".")[0]
             for sub in ast.walk(tree) if isinstance(sub, ast.alias)}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound.update(sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
    return bound


def names_in(node, bound: set) -> Counter:
    """How often each identifier is named under node, docstrings aside; a
    bare name counts only when it is in bound (see module_bindings)."""
    found = dotted_names_in(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in bound:
                found[sub.id] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rpartition(".")[2]] += 1
    return found


def dotted_names_in(node) -> Counter:
    """How often each identifier follows a dot under node: as an attribute,
    or in a string naming it after a package module, docstrings aside."""
    docstrings = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = sub.body[0] if sub.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant):
                docstrings.add(id(doc.value))
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Call):
            args = [arg.value if isinstance(arg, ast.Constant) else None for arg in sub.args]
            for module, name in zip(args, args[1:]):
                if module in MODULES and isinstance(name, str):
                    found.update(name.split("."))
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            for module, attrs in re.findall(r"\b(\w+)((?:\.\w+)+)", sub.value):
                if module in MODULES:
                    found.update(attrs[1:].split("."))
    return found


def test_every_package_definition_is_named_by_the_program():
    named: Counter = Counter()
    for path in PROGRAM:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named += names_in(tree, module_bindings(tree))
    uncalled = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = module_bindings(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and named[node.name] == names_in(node, bound)[node.name]):
                uncalled[node.name] = f"{path.stem}.{node.name}"
    assert sorted(uncalled[name] for name in set(uncalled) - set(ALLOWED)) == []
    # An allowed definition that gains a caller leaves the list.
    assert set(ALLOWED) - set(uncalled) == set()


def test_every_public_method_is_named_by_the_program():
    named = sum((dotted_names_in(ast.parse(path.read_text(encoding="utf-8")))
                 for path in PROGRAM), Counter())
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and named[node.name] == dotted_names_in(node)[node.name]):
                    uncalled.append(f"{path.stem}.{cls.name}.{node.name}")
    assert uncalled == []


def parsed_names(source: str) -> Counter:
    tree = ast.parse(source)
    return names_in(tree, module_bindings(tree))


def test_only_module_references_in_strings_count():
    found = parsed_names(
        'print("final perplexity:")\n'
        'spans = ["crf.viterbi_path", "lstm.LstmCell.run", "perplexity.batch_ce"]\n'
        'Target("title2vec", "BiLmModel.load")\n'
    )
    assert found["perplexity"] == found["batch_ce"] == 0
    assert found["viterbi_path"] == found["LstmCell"] == found["run"] == 1
    assert found["BiLmModel"] == found["load"] == 1


def test_local_variables_do_not_count():
    found = parsed_names(
        "from titletag.title2vec import batch_ce\n"
        "from titletag import crf as c\n"
        "LIMIT = top = 3\n"
        "def run(model):\n"
        "    perplexity = model.perplexity\n"
        "    history = batch_ce(model)\n"
        "    return perplexity + history + LIMIT + top + c.DECODE_CHUNK + run(model)\n"
    )
    assert found["history"] == 0
    assert found["perplexity"] == 1  # the attribute only, not the local variable
    assert found["batch_ce"] == 2  # the import and the call
    assert found["LIMIT"] == found["top"] == 2  # the assignment and the use
    assert found["crf"] == found["c"] == 1  # the import names crf, the use c
    assert found["run"] == 1


def test_only_names_after_a_dot_count_for_methods():
    found = dotted_names_in(ast.parse(
        "from titletag.crf import predict\n"
        "predict(model)\n"
        "model.run()\n"
        'Target("crf", "CrfModel.featurize")\n'
    ))
    assert found["predict"] == 0
    assert found["run"] == found["featurize"] == 1
