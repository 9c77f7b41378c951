"""Every public library name has a reader outside its own definition.

A public module-level function or class of ``src/alignstat``, or a public
method of such a class, must be read by another source line of the
package or by an acceptance criterion.  An ``__init__`` export does not
count as a read, and neither does being a tracer target of the benchmark.
Names that stay for another reason are listed below with that reason.
"""

import ast
from pathlib import Path

import alignstat

PACKAGE = Path(alignstat.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

EXEMPT = {
    # tracer-pinned: perfbench/tracing.py wraps these, so its per-layer
    # metrics go with the benchmark's own move off them (ROADMAP item 5)
    "grassmann.batch_canonical_angle": "tracer-pinned; frame-route test reference",
    "nets.estimate_span_bound": "tracer-pinned; the benchmark's nets setup calls it",
    "nets.chart_cube_measure_estimate": "tracer-pinned; the cube half of volume_measure_estimates",
    "bumps.plateau_sq_derivs": "tracer-pinned",
    "detection.oriented_to_jets": "tracer-pinned; the oriented reduction the engine tests compare against",
    "experiments.run_trial": "tracer-pinned; the one-trial reference of the block engine",
    # references the tests check the library against
    "grassmann.canonical_angle": "test reference: the scalar angle oracle",
    "grassmann.sample_uniform_subspace": "test reference: one uniform plane",
    "grassmann.sample_orthogonal_matrix": "test reference: one Haar rotation",
    "grassmann.subspace_from_normal_form": "test reference: the normal-form round trip",
    "holder.discrepancy_phi": "test reference: the paper's jet discrepancy Phi",
    # the covering certificate
    "grassmann.span_normal_form": "the covering certificate names a member through it",
}


def definitions(tree):
    """(qualified name, first line, last line) of each public top-level
    function and class, and of each public method of such a class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.lineno, node.end_lineno))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    out.append((f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno))
    return out


def reads(tree):
    """(name, line) of every name and attribute the tree reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def unread_names(modules, readers):
    """Qualified names defined in ``modules`` that nothing reads, sorted.

    ``modules`` maps a module name to its source and ``readers`` maps
    further reader names to theirs.  A read inside the name's own
    definition (a recursive call) does not count.
    """
    trees = {name: ast.parse(src) for name, src in {**modules, **readers}.items()}
    found = {name: reads(tree) for name, tree in trees.items()}
    unread = []
    for module in modules:
        for qual, first, last in definitions(trees[module]):
            attr = qual.rpartition(".")[2]
            if not any(
                name == attr and not (owner == module and first <= line <= last)
                for owner, names in found.items()
                for name, line in names
            ):
                unread.append(f"{module}.{qual}")
    return sorted(unread)


def test_the_scan_flags_a_planted_unread_name():
    modules = {
        "a": "def used():\n    return 1\n\n"
        "def planted():\n    return planted()\n\n"
        "class Box:\n    def size(self):\n        return used()\n"
        "    def _hidden(self):\n        return 0\n",
        "b": "from a import Box\nBox().size()\n",
    }
    assert unread_names(modules, {}) == ["a.planted"]
    assert unread_names(modules, {"criteria": "planted()\n"}) == []


def package_unread():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    return unread_names(modules, {"acceptance": ACCEPTANCE.read_text()})


def test_every_public_name_has_a_reader():
    assert [name for name in package_unread() if name not in EXEMPT] == []


def test_every_exemption_is_still_needed():
    assert sorted(set(EXEMPT) - set(package_unread())) == []
