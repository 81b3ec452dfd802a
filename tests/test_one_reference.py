"""Structural guard on the source tree: one contraction kernel and one
explicit reference evaluator. The semiring's per-kind `dot` step is read
only by the kernel's pair contraction, and the unchecked `reference_ops`
pair only by the formula oracle, so no second sum-of-products loop can
grow elsewhere unnoticed."""
import ast
from pathlib import Path

import plexus

SOURCE = Path(plexus.__file__).parent


def attribute_readers(attr):
    """The top-level definitions, as `module.name`, over every module of the
    package, whose bodies read the attribute `attr` (a read outside any
    definition counts as the module's)."""
    readers = set()
    for path in sorted(SOURCE.glob("*.py")):

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Attribute) and child.attr == attr and isinstance(child.ctx, ast.Load):
                    readers.add(owner)
                top = owner == path.stem and isinstance(child, (ast.FunctionDef, ast.ClassDef))
                visit(child, f"{owner}.{child.name}" if top else owner)

        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return readers


def test_reference_ops_are_read_only_by_the_formula_oracle():
    assert attribute_readers("reference_ops") == {"evaluator.evaluate_formula_oracle"}


def test_the_dot_step_is_read_only_by_the_kernel():
    assert attribute_readers("dot") == {"arrays._contract_pair"}
