"""Count a package's settable values: parameters with defaults plus dataclass fields the constructor sets.

    python scripts/settable_values.py [PACKAGE_DIR]    (default src/timefreq)

A dataclass field counts unless its annotation is ``ClassVar`` or it is
declared with ``field(..., init=False)``.
"""

import ast
import sys
from pathlib import Path


def count(package: Path) -> tuple[int, int]:
    """(parameters with defaults, constructor-set dataclass fields) over the package's modules."""
    options = fields = 0
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                options += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields += sum(isinstance(s, ast.AnnAssign) and "ClassVar" not in ast.unparse(s.annotation)
                              and "init=False" not in ast.unparse(s.value or ast.Constant(None)) for s in node.body)
    return options, fields


if __name__ == "__main__":
    options, fields = count(Path(sys.argv[1] if len(sys.argv) > 1 else "src/timefreq"))
    print(f"settable values {options + fields} (options {options}, fields {fields})")
