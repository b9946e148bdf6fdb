"""Every public name of ``burstrx`` has a caller outside the tests.

A public module-level function or class of ``src/burstrx``, or a public
method of one of its public classes, that only the tests reference is code
that nothing runs: it moves into the tests that use it, or goes.  The scan
reads the source with ``ast`` and matches by name: a name has a caller when
some ``Name``, ``Attribute`` or imported alias in ``src/burstrx``,
``perfbench/`` or ``tools/`` spells it.  So one caller of a common name
covers every definition of that name.  :data:`ALLOWED` lists the names kept
without a caller, each with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "burstrx"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench", ROOT / "tools")

ALLOWED = {
    "fourier.dft_oracle": "the tested reference of the FFT semantics (ROADMAP aim 2)",
    "fourier.butterfly_fft": "the hardware-literal kernel, kept as the tested reference (aim 2)",
    "metrics.wilson_interval": "sweep cells and correctness files carry it (items 1 and 14)",
}


def public_definitions():
    """``(qualified name, name)`` of every public function, class and method of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def referenced_names():
    """Every name read, attribute read or name imported by the package, perfbench and tools."""
    names = set()
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_caller():
    used = referenced_names()
    uncalled = [q for q, name in public_definitions() if name not in used and q not in ALLOWED]
    assert uncalled == []


def test_allow_list_is_current():
    # an allowed name that is gone, or that has gained a caller, leaves the list
    used = referenced_names()
    definitions = dict(public_definitions())
    stale = [q for q in ALLOWED if q not in definitions or definitions[q] in used]
    assert stale == []
