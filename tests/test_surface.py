"""The library's surface: every function in src/rtlab has a caller in src
or is a name the traced benchmark wraps or reads, and every name it wraps
exists.  Test references live in the tests that use them."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIMS = ROOT / "perfbench" / "shims.py"

# the theorem 13 rationals stay in src, though no command prints them yet:
# ROADMAP item 12 gives them a CLI route.  The other paper checks live in
# the tests that check them on sampled data.
PAPER_CHECKS = {"theorem13_density"}


def shim_targets():
    """perfbench/shims.py's TARGETS, from its source: nothing is wrapped,
    and no bytecode is written beside it."""
    namespace = {}
    exec(compile(SHIMS.read_text(), str(SHIMS), "exec"), namespace)
    return namespace["TARGETS"]


def shim_reads():
    """The attribute names that TARGETS' count functions read from the
    arguments and return values they get, from perfbench/shims.py's source."""
    counts = {count.__name__ for *_, count in shim_targets() if count}
    return {node.attr for fn in ast.parse(SHIMS.read_text()).body
            if isinstance(fn, ast.FunctionDef) and fn.name in counts
            for node in ast.walk(fn) if isinstance(node, ast.Attribute)}


def test_every_benchmark_target_resolves():
    for span, module, attr, count in shim_targets():
        owner = importlib.import_module(f"rtlab.{module}")
        cls_name, _, name = attr.rpartition(".")
        # install() replaces a method in its class's own __dict__
        owner = vars(getattr(owner, cls_name)) if cls_name else vars(owner)
        assert callable(owner.get(name)) or isinstance(owner.get(name), classmethod), span


def _names(node):
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_src_function_has_a_src_caller():
    # called: the bare name is read in src outside the function's own body
    allowed = (PAPER_CHECKS | shim_reads()
               | {attr.split(".")[-1] for _, _, attr, _ in shim_targets()})
    trees = {f.name: ast.parse(f.read_text())
             for f in sorted((ROOT / "src" / "rtlab").glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    uncalled = [f"{file}:{node.lineno} {node.name}"
                for file, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and used[node.name] == _names(node).count(node.name)
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in allowed]
    assert uncalled == []
