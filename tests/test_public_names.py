"""Every public name of the package has a caller outside the tests, and the
run path imports only the SciPy it uses.

A public function, method or class that only tests call is code the program
does not need. The few kept as test oracles are listed in ORACLES; any other
such name fails here, and so does an oracle that gained a caller.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "foilwind"

# Kept only because a gate or a layer test uses them as its oracle.
ORACLES = {
    "formulations.AssemblyContext.jacobian",  # the full Jacobian that the eliminations reduce
    "mesh.Mesh.winding_loop",
    "postprocess.turns_per_slice",
    "spaces.VoltageBasis.eval",  # pointwise values that check cell_means
    "spaces.eval_field",
}


def _public_definitions() -> dict[str, str]:
    """Qualified name -> bare name of each public module-level def and method."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def _reads(node: ast.AST, enclosing: frozenset[str] = frozenset()):
    """Names and attribute names read under ``node``, except inside a function
    of the same name: a method that only delegates to a namesake does not
    give that namesake a caller."""
    if isinstance(node, ast.FunctionDef):
        enclosing |= {node.name}
    if isinstance(node, ast.Name) and node.id not in enclosing:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, enclosing)


def _referenced_identifiers() -> set[str]:
    """Names and attribute names read anywhere in src/ and perfbench/.

    Matching is by bare identifier, so a method counts as called when any
    attribute of that name is read; the check misses such collisions but
    never flags a name that has a caller.
    """
    seen = set()
    for tree_root in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(tree_root.rglob("*.py")):
            seen.update(_reads(ast.parse(path.read_text())))
    return seen


def test_public_names_without_callers_are_the_oracles():
    referenced = _referenced_identifiers()
    uncalled = {
        qualified
        for qualified, name in _public_definitions().items()
        if name not in referenced
    }
    assert uncalled == ORACLES


def test_only_the_layout_tells_the_reference_from_the_homogenized_variants():
    """The reference's per-turn constraints are its indicator voltage modes,
    which ``spaces.build_dof_layout`` decides; past the layout, no module
    branches on the reference variant."""
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if "REF_H_PHI" in _reads(ast.parse(path.read_text()))
    }
    assert readers <= {"variants.py", "spaces.py", "config.py"}


def test_run_path_imports_only_sparse_and_linalg():
    """Every foilwind process pays for what its modules import. scipy.signal
    alone loads stats, optimize, interpolate and six more subpackages: about
    46 MB of resident memory and 0.75 s of start-up on a 2-core x86 host. So
    the CLI and the runner may load no public SciPy subpackage besides sparse
    and linalg."""
    code = (
        "import sys, foilwind.cli, foilwind.runner\n"
        "for name, mod in sys.modules.items():\n"
        "    sub = name.split('.')\n"
        "    if len(sub) == 2 and sub[0] == 'scipy' and not sub[1].startswith('_')"
        " and hasattr(mod, '__path__'):\n"
        "        print(name)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) <= {"scipy.sparse", "scipy.linalg"}
