"""Static checks on the package source that need no linter."""

import ast
import subprocess
import sys
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
        "v = layer_norm(x * d, g, b)\nu = residual_layer_norm(x, d, g, b, p, r)\n"
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


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """Public top-level functions and methods (``Class.method``) whose name
    no module reads, as a name or an attribute. An import does not count,
    so a function that only tests or tools use is flagged."""
    defined, referenced = [], set()
    for source in sources.values():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [
        qualified for qualified, name in defined
        if not name.startswith("_") and name not in referenced
    ]


def test_checker_flags_an_unreferenced_function():
    sources = {
        "a.py": (
            "def used(): pass\ndef imported(): pass\ndef _private(): pass\n"
            "class C:\n    def method(self): pass\n    def called(self): pass\n"
            "    def __len__(self): return 0\n"
        ),
        "b.py": "from .a import used, imported\nused()\nC().called()\n",
    }
    assert unreferenced_functions(sources) == ["imported", "C.method"]


# Public names that no module of the package reads, each with why it stays.
UNREFERENCED_ALLOWED = {
    "_Parser.error": "argparse calls it on a usage error",
    "joint_loss": "perfbench/tracing.py wraps it by name",
}


def test_every_public_function_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert sorted(unreferenced_functions(sources)) == sorted(UNREFERENCED_ALLOWED)


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


def training_parameters(source: str) -> list[str]:
    """Functions with a parameter named ``training``: dropout is on exactly
    when a forward is given a generator, so a flag beside the generator
    could only disagree with it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            if "training" in {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}:
                found.append(f"line {node.lineno}: {node.name}")
    return found


def test_checker_flags_a_training_parameter():
    source = (
        "def f(x, training): pass\n"
        "def g(x, *, training=False, rng=None): pass\n"
        "def h(x, rng=None):\n    training = rng is not None\n"
        "class C:\n    def m(self, training: bool, /): pass\n"
    )
    assert training_parameters(source) == ["line 1: f", "line 2: g", "line 6: m"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dropout_is_switched_by_the_generator_alone(path):
    assert training_parameters(path.read_text(encoding="utf-8")) == []


def array_rebindings(source: str) -> list[str]:
    """Assignments to an ``array`` or ``shape`` attribute outside
    ``Tensor.__init__``: a parameter's array is a view of its weights'
    vector, and rebinding it would silently cut the parameter off the vector
    that Adam updates and checkpoints save; a Tensor's ``shape`` is set once
    from its array, and a store to it (or an in-place reshape of an array)
    would make the two disagree. Writes go into the array (``p.array[...] = x``)."""
    tree = ast.parse(source)
    allowed = {
        id(inner) for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Tensor"
        for method in node.body
        if isinstance(method, ast.FunctionDef) and method.name == "__init__"
        for inner in ast.walk(method)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Assign):
            targets = [t for target in node.targets for t in ast.walk(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Attribute) and t.attr in ("array", "shape")
               and isinstance(t.ctx, ast.Store) for t in targets):
            found.append(node.lineno)
    return [f"line {n}" for n in sorted(found)]


def test_checker_flags_an_array_rebinding():
    source = (
        "class Tensor:\n    def __init__(self, a):\n        self.array = a\n"
        "    def reset(self):\n        self.array = None\n"
        "p.array -= lr * update\n"
        "p.array[...] = x\n"
        "a, w.array = 1, 2\n"
        "p.array.flat[0] = 0.0\n"
        "q.array: object = y\n"
        "t.shape = (2, 3)\n"
        "t.array.shape = (6,)\n"
        "n = t.shape[0]\n"
    )
    assert array_rebindings(source) == [
        "line 5", "line 6", "line 8", "line 10", "line 11", "line 12"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_parameter_array_is_rebound(path):
    assert array_rebindings(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Names starting with ``_`` (dunders aside) that a module imports from
    another module: a private name is its module's own, so a second module
    that needs it needs a public name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_flags_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from .tensor import Tensor, _log_softmax\n"
        "from dialoqa.corpus import _normalize as normalize\n"
        "from . import __version__, _private\n"
        "import numpy as np\n"
    )
    assert private_imports(source) == [
        "line 2: _log_softmax", "line 3: _normalize", "line 4: _private"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def file_writes(source: str) -> list[str]:
    """Calls that can write a file: ``open`` (builtin, ``io``'s or a path's)
    with a mode that writes, appends, creates or updates, or one that is not
    a constant; ``write_text`` and ``write_bytes``; and ``os.open`` (whatever
    its flags), ``os.replace`` and ``os.rename``. Only ``files.write_file``
    may make them, so every output reaches disk atomically and durably, one
    way."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name, func = _call_name(node), node.func
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if owner == "os":
            writes = name in ("open", "replace", "rename")
        elif name == "open":
            # open(file, mode) and io.open(file, mode); path.open(mode)
            index = 0 if isinstance(func, ast.Attribute) and owner != "io" else 1
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[index] if len(node.args) > index else None)
            writes = mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")
            )
        else:
            writes = name in ("write_text", "write_bytes")
        if writes:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_flags_a_file_write():
    source = (
        "f = open(p, 'w')\n"
        "g = open(p)\n"
        "h = open(p, mode='ab')\n"
        "Path(p).open('wb')\n"
        "Path(p).open()\n"
        "open(p, 'rb').read()\n"
        "p.write_text(s)\n"
        "p.write_bytes(b)\n"
        "os.replace(a, b)\n"
        "s.replace('a', 'b')\n"
        "fd = os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "fd = os.open(d, os.O_RDONLY)\n"
        "io.open(p, mode)\n"
        "c = replace(cfg, seed=1)\n"
        "os.rename(a, b)\n"
        "open(p, 'r+')\n"
    )
    assert file_writes(source) == [
        "line 1: open", "line 3: open", "line 4: open", "line 7: write_text",
        "line 8: write_bytes", "line 9: replace", "line 11: open", "line 12: open",
        "line 13: open", "line 15: rename", "line 16: open",
    ]


def test_only_the_writer_writes_files():
    found = {path.name: file_writes(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert found.pop("files.py")  # the writer's own open and os.replace are seen
    assert {name: calls for name, calls in found.items() if calls} == {}


def checkpoint_loads(source: str) -> list[str]:
    """Calls of ``load_checkpoint``, plain or as an attribute, and imports of
    it. Only the CLI reads a checkpoint, the one its user names, so no stage
    reads back a file that it wrote itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _call_name(node) == "load_checkpoint":
            found.append(f"line {node.lineno}: call")
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "load_checkpoint" for alias in node.names
        ):
            found.append(f"line {node.lineno}: import")
    return found


def test_checker_flags_a_checkpoint_load():
    source = (
        "from .checkpoint import Checkpoint, load_checkpoint as load\n"
        "best = load_checkpoint(path)\n"
        "last = checkpoint.load_checkpoint(path)\n"
        "save_checkpoint(best, path)\n"
        "def load_checkpoint(path):\n    return path\n"
    )
    assert checkpoint_loads(source) == ["line 1: import", "line 2: call", "line 3: call"]


def test_only_the_cli_loads_a_checkpoint():
    found = {path.name: checkpoint_loads(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert found.pop("cli.py")  # the --init it is given
    assert {name: calls for name, calls in found.items() if calls} == {}


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy or a scipy submodule: the package runs on numpy alone
    (GELU's erf is ``tensor.erf``), and scipy is a test dependency only."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_checker_flags_a_scipy_import():
    source = (
        "import scipy\nfrom scipy.special import erf\nimport scipyx\n"
        "from .scipy import y\nimport numpy as np, scipy.linalg as la\n"
    )
    assert scipy_imports(source) == ["line 1", "line 2", "line 5"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_importing_the_cli_loads_no_scipy():
    """The whole program's imports, seen in a fresh process: none of them
    (numpy's included) brings scipy in."""
    code = "import sys, dialoqa.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
