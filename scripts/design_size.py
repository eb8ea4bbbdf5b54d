"""Print the design-size counters tracked in ROADMAP.md, as JSON.

The counters are the line count of every ``*.py`` file under ``src/``
(as ``wc -l`` counts them), the same for ``src/repro/service/``, the
number of ``add_argument`` calls in the CLI, the number of
``ServiceConfig`` fields, and the number of defaulted parameters of the
public functions and methods under ``src/repro/service/`` (options that
are neither CLI flags nor config fields).  The script reports only; it
gates nothing.

Usage::

    python scripts/design_size.py            # from the repository root
    python scripts/design_size.py --out design_size.json
"""

from __future__ import annotations

import argparse
import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def count_lines(directory: Path) -> int:
    """Newlines in every ``*.py`` file below ``directory`` (``wc -l``)."""
    return sum(
        path.read_bytes().count(b"\n") for path in directory.rglob("*.py")
    )


def count_add_argument_calls(cli: Path) -> int:
    """``parser.add_argument(...)`` calls in the CLI module."""
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
    )


def count_dataclass_fields(module: Path, class_name: str) -> int:
    """Annotated class-level fields of ``class_name`` in ``module``."""
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return sum(isinstance(item, ast.AnnAssign) for item in node.body)
    raise SystemExit(f"class {class_name} not found in {module}")


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def count_keyword_params(directory: Path) -> int:
    """Defaulted parameters of public functions and methods below ``directory``.

    Module-level functions and the methods of module-level classes
    count when their name is public (``__init__`` included, since its
    defaults are a class's options); nested functions do not.
    """
    total = 0
    for path in sorted(directory.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [
            node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_public(cls.name):
                functions.extend(
                    node
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        for function in functions:
            if _is_public(function.name):
                args = function.args
                total += len(args.defaults) + sum(
                    default is not None for default in args.kw_defaults
                )
    return total


def design_size(root: Path = ROOT) -> dict:
    package = root / "src" / "repro"
    return {
        "src_lines": count_lines(root / "src"),
        "service_lines": count_lines(package / "service"),
        "cli_add_argument_calls": count_add_argument_calls(package / "cli.py"),
        "service_config_fields": count_dataclass_fields(
            package / "service" / "config.py", "ServiceConfig"
        ),
        "service_keyword_params": count_keyword_params(package / "service"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=ROOT, help="repository root to measure"
    )
    parser.add_argument(
        "--out", type=Path, help="also write the JSON document to this file"
    )
    args = parser.parse_args(argv)
    text = json.dumps(design_size(args.root), indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
