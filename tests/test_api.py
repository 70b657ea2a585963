"""Every name the package exports, and every other public top-level function and class of its
modules, is used by the package or the benchmark, or is a named test oracle: library API that
only tests call is deleted, not kept "just in case"."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "persuade")

# public names that only tests call, each kept as the oracle or reference it is
ORACLES = {
    "posterior": "the one-joint-signal Bayes update the reference kernel and the game tests read",
    "pub_sender_utility": "the public-persuasion objective an exact best response is checked against",
    "forward_with_pattern": "the activation pattern the gradient and piece tests read",
    "didactic_game": "the hand-sized game of the learning tests and acceptance criterion 7",
    "simulate_mean_payoffs": "the Monte-Carlo sampler the exact utilities are checked against (criterion 3)",
    "exact_payoff_variance": "the exact per-draw variance that sizes criterion 3's Monte-Carlo tolerance",
    "reduced_action_values": "the reduced game's receiver values, read off its utilities (criterion 5)",
    "reduced_action_values_closed_form": "the construction's closed forms those values must equal (criterion 5)",
}


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def exported_names():
    return {alias.asname or alias.name
            for node in ast.walk(_tree(os.path.join(PACKAGE, "__init__.py")))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def public_definitions():
    """Every top-level function and class of the package's modules whose name has no leading underscore."""
    return {node.name for path in glob.glob(os.path.join(PACKAGE, "*.py")) for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def referenced_names():
    """Every name, attribute and imported name in the package outside `__init__.py` and in
    the benchmark's modules, plus the function names the benchmark's tracer spells as strings."""
    paths = [p for p in glob.glob(os.path.join(PACKAGE, "*.py")) if os.path.basename(p) != "__init__.py"]
    names = set()
    for path in paths + glob.glob(os.path.join(ROOT, "perfbench", "*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
    for node in ast.walk(_tree(os.path.join(ROOT, "perfbench", "bench_trace.py"))):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            names.update(target.elts[1].value for target in node.value.elts)
    return names


def test_every_export_is_used_or_an_oracle():
    exported, defined = exported_names(), public_definitions()
    assert "__version__" not in exported and len(exported) > 40 and exported <= defined
    unused = sorted(defined - referenced_names() - set(ORACLES))
    assert unused == [], f"public but used only by tests: {unused}"


def test_oracles_are_exported_and_unused_by_the_package():
    # an oracle that the package starts to use, or stops defining, leaves this list
    assert set(ORACLES) <= public_definitions()
    assert set(ORACLES).isdisjoint(referenced_names())
