"""DDA005 — public kernel-path functions document array shapes.

Every public module-level function on the kernel path moves arrays
whose shapes encode the pipeline's data layout (``(m, 6, 6)``
contribution streams, ``(n + 1,)`` row pointers...).
The docstring must say what those shapes are: a parenthesised tuple with
a comma (``(n, 4)``, ``(q,)``), a dimensionality tag (``1-D``/``2-D``),
or the words ``shape`` / ``scalar``. Functions taking and returning only
true scalars still need one of the markers — "scalar" in the docstring
is the cheapest way to pass, and it documents exactly the right thing.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.framework import Finding, LintPass, SourceModule

#: Any one of these in the docstring counts as a shape annotation.
SHAPE_HINT = re.compile(
    r"\([^()\n]*,[^()\n]*\)"   # a tuple with a comma: (n, 4), (q,)
    r"|\b\d-D\b"               # 1-D / 2-D
    r"|\bshape\b"
    r"|\bscalar\b",
)


class DocstringPass(LintPass):
    code = "DDA005"
    name = "shape-docstrings"
    description = (
        "every public module-level kernel-path function annotates its "
        "array shapes in the docstring"
    )

    def run(self, module: SourceModule) -> Iterator[Finding]:
        for node in module.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            doc = ast.get_docstring(node)
            if doc is None:
                yield self.finding(
                    module, node,
                    f"public kernel-path function '{node.name}' has no "
                    "docstring (shapes must be documented)",
                    function=node.name,
                )
            elif not SHAPE_HINT.search(doc):
                yield self.finding(
                    module, node,
                    f"docstring of '{node.name}' does not annotate array "
                    "shapes (expected a '(n, ...)' tuple, '1-D'/'2-D', "
                    "'shape', or 'scalar')",
                    function=node.name,
                )
