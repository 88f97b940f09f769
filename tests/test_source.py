"""Static checks on the package source.

No module imports a name it never uses, and every private module-level
name is read somewhere in the package, so deleting the last caller of a
helper or constant also shows the helper or constant.  numpy's fft is
used only inside modular._representation_counts, so every float count
sits behind its one proved error bound and rounding guard.  Every
command-line option is read by cli.py, so a flag cannot outlive its use.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linform"
SOURCES = sorted(PACKAGE.glob("*.py"))
# __init__.py imports names only to re-export them.
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in source that no expression reads.

    An attribute chain such as np.int64 starts at the Name np, so it counts
    as a use of np; annotations are expressions too.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_unused_imports():
    source = ("import json\nimport os.path\nimport numpy as np\nfrom math import gcd, lcm\n"
              "from . import _bits\n\ndef f(x: np.ndarray) -> int:\n    return gcd(x, os.sep)\n")
    assert unused_imports(source) == ["_bits (line 5)", "json (line 1)", "lcm (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level names with one leading underscore that source binds, with their lines."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items() if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names that source reads, bare (x) or as an attribute (module.x)."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_scan_finds_unread_private_names():
    source = ("_A = 1\n_B, C = 2, 3\n__all__ = []\n\ndef _f():\n    return _A\n\n"
              "def _g():\n    return 0\n\nclass _K:\n    pass\n")
    assert private_definitions(source) == {"_A": 1, "_B": 2, "_f": 5, "_g": 8, "_K": 11}
    defined = private_definitions(source)
    assert sorted(defined.keys() - read_names(source + "x = y._g\n")) == ["_B", "_K", "_f"]


def test_private_names_are_read():
    read = set().union(*(read_names(p.read_text()) for p in SOURCES))
    unread = [f"{p.name}: {name} (line {line})" for p in SOURCES
              for name, line in private_definitions(p.read_text()).items() if name not in read]
    assert unread == []


def bound_rules(source: str) -> list[tuple[str, str | None, bool]]:
    """(rule, function, proved) for each Bound(...) call in source.

    The rule is the fourth argument or the keyword rule.  It is proved when
    the docstring of the innermost function holding the call has a
    paragraph that opens with Rule "<rule>" and holds "Proof.".
    """
    found = []

    def visit(node: ast.AST, func: ast.FunctionDef | None) -> None:
        if isinstance(node, ast.FunctionDef):
            func = node
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Bound":
            arg = node.args[3] if len(node.args) > 3 else next(k.value for k in node.keywords if k.arg == "rule")
            rule = arg.value if isinstance(arg, ast.Constant) else ast.unparse(arg)
            paragraphs = ((func and ast.get_docstring(func)) or "").split("\n\n")
            proved = any(p.startswith(f'Rule "{rule}"') and "Proof." in p for p in paragraphs)
            found.append((rule, func and func.name, proved))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def reached_from_checks(sources: list[str], verify_source: str) -> set[str]:
    """Names of the functions that the entries of CHECKS in verify_source reach.

    A function reaches every name its body reads, bare or as an attribute,
    that some source defines as a function or method: a static
    over-approximation of the calls, property reads included.
    """
    bodies: dict[str, set[str]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                bodies.setdefault(node.name, set()).update(read_names(ast.unparse(node)))
    checks = next(node.value for node in ast.parse(verify_source).body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and "CHECKS" in {t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])})
    todo = [node.id for node in ast.walk(checks) if isinstance(node, ast.Name) and node.id in bodies]
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(bodies[name] & bodies.keys())
    return reached


def test_scan_finds_unproved_and_unchecked_rules():
    source = ('def ledger(locs):\n    """Bounds.\n\n    Rule "a": |f(A)| >= 1.\n    Proof.  One value.\n\n'
              '    Rule "b": |f(A)| <= 9.\n    """\n'
              '    return (Bound("f", "lower", 1, "a"), Bound("f", "upper", 9, rule="b"))\n\n'
              'def lonely():\n    """Rule "c": |g(A)| >= 1.\n\n    Proof.  Too far from the rule."""\n'
              '    return Bound("g", "lower", 1, "c")\n\n'
              'def check_one():\n    return helper()\n\n'
              'def helper():\n    return ledger([])\n\n'
              'CHECKS = (("one", check_one, 1.0),)\n')
    assert bound_rules(source) == [("a", "ledger", True), ("b", "ledger", False), ("c", "lonely", False)]
    assert reached_from_checks([source], source) == {"check_one", "helper", "ledger"}


def test_every_bound_rule_is_proved_and_checked():
    rules = [rule for p in SOURCES for rule in bound_rules(p.read_text())]
    assert rules, "no Bound(...) rule found"
    assert [rule for rule in rules if not rule[2]] == []
    reached = reached_from_checks([p.read_text() for p in SOURCES], (PACKAGE / "verify.py").read_text())
    assert [rule for rule in rules if rule[1] not in reached] == []


def fft_uses(source: str) -> list[tuple[str | None, int]]:
    """(function, line) for each use of an fft module in source.

    A use is an attribute .fft (np.fft, numpy.fft) or an import that names
    fft; the function is the innermost def holding it, None at module level.
    """
    found = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                or isinstance(node, ast.ImportFrom) and "fft" in (node.module or "").split(".")
                or isinstance(node, (ast.Import, ast.ImportFrom))
                and any("fft" in alias.name.split(".") for alias in node.names)):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_scan_finds_fft_uses():
    source = ("import numpy as np\nimport numpy.fft\nfrom numpy import fft\nfrom numpy.fft import rfft\n\n"
              "def _representation_counts(x):\n    return np.fft.irfft(np.fft.rfft(x))\n\n"
              "def planted(x):\n    def inner():\n        return numpy.fft.rfft(x)\n    return inner, _fft_image_mask(x)\n")
    assert fft_uses(source) == [(None, 2), (None, 3), (None, 4), ("_representation_counts", 7),
                                ("_representation_counts", 7), ("inner", 11)]


def test_fft_only_in_representation_counts():
    uses = [(p.name, func, line) for p in SOURCES for func, line in fft_uses(p.read_text())]
    assert uses, "no fft use found"
    assert [use for use in uses if use[:2] != ("modular.py", "_representation_counts")] == []


def option_dests(parser: argparse.ArgumentParser) -> set[str]:
    """The dest of every option of parser and of its subcommands, nested ones included; --help excepted."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= option_dests(sub)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            dests.add(action.dest)
    return dests


def args_reads(source: str) -> set[str]:
    """The attributes x that source reads as args.x."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_scan_finds_unread_options():
    parser = argparse.ArgumentParser()
    parser.add_argument("--top")
    inner = parser.add_subparsers(dest="command").add_parser("outer").add_subparsers(dest="kind")
    leaf = inner.add_parser("leaf")
    leaf.add_argument("-n", "--count", type=int)
    leaf.add_argument("--dry-run", action="store_true")
    assert option_dests(parser) == {"top", "count", "dry_run"}
    source = "def handler(args):\n    return args.count, other.dry_run, args.kind\n"
    assert sorted(option_dests(parser) - args_reads(source)) == ["dry_run", "top"]


def test_every_cli_option_is_read():
    from linform import cli

    dests = option_dests(cli.build_parser())
    assert {"json", "form", "form_f", "u", "t", "only"} <= dests  # nested witness options included
    assert sorted(dests - args_reads((PACKAGE / "cli.py").read_text())) == []


# The package's public names, which __init__.py derives from its imports.
PUBLIC = """
    DIFFERENCE SUM FiniteIntSet LinearForm affine_canonical amplify canonical_pair image image_cardinality
    normalize_form set_from_json set_from_text set_to_text ConstructionReport LocalSolution ResidueSet
    build_separating_set crt_product load_locals local_ratio_search local_solution modular_image
    modular_image_cardinality rectify PrimeSearchResult PrimeSearchSpec crt_combine find_primes is_prime
    is_qth_power_residue jacobi primes_between CoverageReport PowerSubgroup choose_power_exponent coverage
    kth_power_local_solutions power_subgroup qr_local_solutions qr_sum_diff_full zero_in_f_of_qr
    TripleClassification WitnessPair ap_equality_set classify_triples conjugate_four_set_witness
    five_set_witness three_set_witness
""".split()


def test_star_import_binds_the_public_names_only():
    namespace: dict = {}
    exec("from linform import *", namespace)
    assert len(PUBLIC) == 48
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(PUBLIC)
