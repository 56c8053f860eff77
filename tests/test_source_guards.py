"""Source guards: who may write files and who may factorize sparse systems.

Two decisions each live in one module, and these tests fail when code
anywhere else in ``src/repro`` takes them:

- files are written only by :mod:`repro.checkpoint.atomic` (temp file,
  fsync, rename), so a crash never leaves a torn artifact;
- sparse systems are factorized only in :mod:`repro.linalg`, behind its
  typed error contract and telemetry, and nothing densifies a matrix or
  calls ``spsolve`` (which throws its factorization away).

The scans are syntactic (``ast``), so names in strings and comments do not
count.  Each scanner is also run over a snippet of every shape it must see,
so a scanner that goes blind fails here too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The one module allowed to write files.
WRITER_MODULE = "repro.checkpoint.atomic"

#: Writes outside :data:`WRITER_MODULE` that are allowed, each exactly once.
#: ``JobStore`` opens ``<root>/store.lock`` in append mode only to hold an
#: ``flock`` on it: it writes no bytes, so there is nothing to tear.
ALLOWED_WRITES = [("repro.server.jobstore", "open(mode='ab')")]

_WRITE_MODE_CHARS = frozenset("wax+")
_OS_WRITE_FLAGS = frozenset(
    {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}
)
_FACTORIZERS = frozenset({"splu", "spilu", "factorized"})
_DENSIFIERS = frozenset({"todense", "toarray"})


def _modules():
    """``(dotted module name, parsed tree)`` for every file under src."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), ast.parse(path.read_text(encoding="utf-8"))


def _argument(call, index, keyword):
    """The call's positional argument ``index`` or keyword, else None."""
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _mode(call, index):
    """``"open(mode=...)"`` when the mode writes, else None.

    A mode that is not a string literal counts as writing.
    """
    mode = _argument(call, index, "mode")
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if not _WRITE_MODE_CHARS & set(mode.value):
            return None
        return f"open(mode={mode.value!r})"
    return "open(mode=<dynamic>)"


def _is_os(node):
    return isinstance(node, ast.Name) and node.id == "os"


def _write_shape(call):
    """How ``call`` writes a file, or None when it does not."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return _mode(call, 1)
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in ("write_text", "write_bytes"):
        return f".{func.attr}()"
    if func.attr == "dump" and isinstance(func.value, ast.Name):
        if func.value.id in ("json", "pickle"):
            return f"{func.value.id}.dump()"
    if _is_os(func.value) and func.attr == "open":
        flags = _argument(call, 1, "flags")
        used = {
            node.attr for node in ast.walk(flags)
            if isinstance(node, ast.Attribute)
        } if flags is not None else set()
        return "os.open(flags=write)" if used & _OS_WRITE_FLAGS else None
    if _is_os(func.value) and func.attr == "fdopen":
        return "os.fdopen(mode=write)" if _mode(call, 1) else None
    if func.attr == "open":  # Path.open(mode)
        return _mode(call, 0)
    return None


def _writes(tree):
    return [
        shape
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for shape in [_write_shape(node)]
        if shape is not None
    ]


def _sparse_uses(tree):
    """Factorizer names used or imported, and densify/spsolve calls."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in _FACTORIZERS or name in _DENSIFIERS or name == "spsolve":
            found.append(name)
    return found


def test_only_checkpoint_atomic_writes_files():
    writes = [
        (module, shape)
        for module, tree in _modules()
        if module != WRITER_MODULE
        for shape in _writes(tree)
    ]
    assert writes == ALLOWED_WRITES


def test_only_linalg_factorizes_and_nothing_densifies():
    misuse = []
    for module, tree in _modules():
        in_linalg = module == "repro.linalg" or module.startswith(
            "repro.linalg."
        )
        for name in _sparse_uses(tree):
            if name not in _FACTORIZERS or not in_linalg:
                misuse.append((module, name))
    assert misuse == []


@pytest.mark.parametrize(
    "source",
    [
        'open(p, "w")',
        'open(p, mode="ab")',
        'open(p, "r+")',
        'open(p, "xb")',
        "open(p, mode)",
        'Path(p).open("a")',
        "Path(p).write_text(text)",
        "path.write_bytes(data)",
        "os.open(p, os.O_WRONLY | os.O_CREAT)",
        'os.fdopen(fd, "wb")',
        "json.dump(obj, fh)",
        'json.dump(obj, open(p, "w"))',
        "pickle.dump(obj, fh)",
    ],
)
def test_write_scanner_sees_every_writing_shape(source):
    assert _writes(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "open(p)",
        'open(p, "rb")',
        'Path(p).open("r")',
        "path.read_text()",
        "os.open(d, os.O_RDONLY)",
        'os.fdopen(fd, "rb")',
        "json.dumps(obj)",
        "urllib.request.urlopen(url)",
    ],
)
def test_write_scanner_ignores_reads(source):
    assert _writes(ast.parse(source)) == []


@pytest.mark.parametrize(
    "source,name",
    [
        ("from scipy.sparse.linalg import splu", "splu"),
        ("from scipy.sparse.linalg import spilu as ilu", "spilu"),
        ("scipy.sparse.linalg.factorized(a)", "factorized"),
        ("lu = splu(a)", "splu"),
        ("x = spsolve(a, b)", "spsolve"),
        ("dense = a.toarray()", "toarray"),
        ("dense = a.todense()", "todense"),
    ],
)
def test_sparse_scanner_sees_every_shape(source, name):
    assert name in _sparse_uses(ast.parse(source))
