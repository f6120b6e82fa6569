"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dialoqa").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _call_name(node) -> str:
    """The called name of a ``Call`` node, plain or as an attribute."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def projections_outside_linear(source: str) -> list[str]:
    """Binary additions with a ``matmul(...)`` call as an operand: an affine
    projection that should be one ``linear`` node."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            for side in (node.left, node.right):
                if isinstance(side, ast.Call) and _call_name(side) == "matmul":
                    found.append(f"line {node.lineno}")
    return found


def test_checker_flags_matmul_plus_bias():
    source = "y = matmul(x, w) + b\nz = b + T.matmul(x, w)\nv = matmul(x, w) * s\n"
    assert projections_outside_linear(source) == ["line 1", "line 2"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_affine_projections_use_linear(path):
    assert projections_outside_linear(path.read_text(encoding="utf-8")) == []


def residuals_outside_fused_norm(source: str) -> list[str]:
    """``layer_norm`` calls whose input is a sum (``+`` or ``add(...)``): a
    residual LayerNorm that should be one ``residual_layer_norm`` node."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _call_name(node) == "layer_norm" and node.args:
            first = node.args[0]
            if (isinstance(first, ast.BinOp) and isinstance(first.op, ast.Add)) or (
                isinstance(first, ast.Call) and _call_name(first) == "add"
            ):
                found.append(f"line {node.lineno}")
    return found


def test_checker_flags_a_residual_layer_norm():
    source = (
        "y = layer_norm(x + d, g, b)\nz = T.layer_norm(T.add(x, d), g, b)\n"
        "v = layer_norm(x * d, g, b)\nu = residual_layer_norm(x, d, g, b, p, t, r)\n"
    )
    assert residuals_outside_fused_norm(source) == ["line 1", "line 2"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_residual_layer_norms_are_fused(path):
    assert residuals_outside_fused_norm(path.read_text(encoding="utf-8")) == []


def unused_tensor_functions(sources: dict[str, str]) -> list[str]:
    """Public top-level functions of ``tensor.py`` that no other module
    imports and ``tensor.py`` never calls by name. Only calls count, so a
    local variable that shares a function's name does not hide it."""
    tree = ast.parse(sources["tensor.py"])
    called = {
        n.func.id for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }
    imported = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "dialoqa.tensor"):
                imported.update(alias.name for alias in node.names)
    return [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in called | imported
    ]


def test_checker_flags_an_unused_tensor_function():
    tensor = (
        "def used(): pass\ndef helper(): pass\ndef stack(): pass\n"
        "def _f():\n    stack = [1]\n    stack.pop()\n    return helper()\n"
    )
    sources = {"tensor.py": tensor, "model.py": "from .tensor import used\n"}
    assert unused_tensor_functions(sources) == ["stack"]


def test_every_tensor_function_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unused_tensor_functions(sources) == []


def called_names(source: str) -> set[str]:
    """Names of the functions a module calls, plain or as an attribute."""
    return {
        n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
    }


def test_checker_lists_called_names():
    assert called_names("y = T.softmax(x)\nz = attention(q, k, v)\n") == {"softmax", "attention"}


def test_encoder_attends_through_the_fused_op():
    """All three attentions go through one ``attention`` node; a softmax
    spelled out in the encoder would be a second, unfused copy."""
    names = called_names((SOURCES[0].parent / "encoder.py").read_text(encoding="utf-8"))
    assert "attention" in names
    assert "softmax" not in names


def unread_config_fields(sources: dict[str, str]) -> list[str]:
    """``RunConfig`` fields (declared in ``training.py``) whose name appears
    nowhere in the package as an attribute access or a string constant (a
    budget looked up with ``getattr``), not counting ``__post_init__``."""
    config = next(
        node for node in ast.parse(sources["training.py"]).body
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig"
    )
    declared = [
        node.target.id for node in config.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    read = set()
    for source in sources.values():
        tree = ast.parse(source)
        skipped = {
            id(inner) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig"
            for method in node.body
            if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
            for inner in ast.walk(method)
        }
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [name for name in declared if name not in read]


def test_checker_flags_an_unread_config_field():
    training = (
        "class RunConfig:\n    a: int = 1\n    b: str = 'x'\n    c: int = 2\n"
        "    d: int = 3\n"
        "    def __post_init__(self):\n        assert self.b == 'x' and self.c\n"
        "def budget(cfg):\n    return getattr(cfg, 'c')\n"
    )
    sources = {"training.py": training, "cli.py": "print(config.a)\n"}
    assert unread_config_fields(sources) == ["b", "d"]


def test_every_config_field_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_config_fields(sources) == []


def weights_and_config_pairs(source: str) -> list[str]:
    """Functions with one parameter annotated ``EncoderWeights`` and another
    annotated ``ModelConfig``: weights carry their model config, so a second
    one can disagree with it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            kinds = {
                p.annotation.attr if isinstance(p.annotation, ast.Attribute)
                else getattr(p.annotation, "id", "")
                for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)
            }
            if {"EncoderWeights", "ModelConfig"} <= kinds:
                found.append(f"line {node.lineno}: {node.name}")
    return found


def test_checker_flags_a_weights_and_config_pair():
    source = (
        "def f(w: EncoderWeights, cfg: ModelConfig): pass\n"
        "def g(w: EncoderWeights, *, cfg: encoder.ModelConfig = None): pass\n"
        "def h(cfg: ModelConfig, w): pass\n"
        "def k(w: EncoderWeights, n: int): pass\n"
        "class C:\n    def m(self, w: EncoderWeights, c: ModelConfig): pass\n"
    )
    assert weights_and_config_pairs(source) == ["line 1: f", "line 2: g", "line 6: m"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_forwards_read_the_config_of_their_weights(path):
    assert weights_and_config_pairs(path.read_text(encoding="utf-8")) == []
