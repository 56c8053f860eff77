"""Source guards: who may write files, factorize sparse systems, or read
nondeterministic values.

Three decisions each live in one place, and these tests fail when code
anywhere else in ``src/repro`` takes them:

- files are written only by :mod:`repro.checkpoint.atomic` (temp file,
  fsync, rename), so a crash never leaves a torn artifact;
- sparse systems are factorized only in :mod:`repro.linalg`, behind its
  typed error contract and telemetry, and nothing densifies a matrix or
  calls ``spsolve`` (which throws its factorization away);
- clocks, process ids, OS entropy, ``uuid``, ``id()`` and unseeded RNGs
  are read only in :data:`NONDETERMINISM_PACKAGES` (telemetry, profiling,
  fault injection, the service), so every result, cache key, checkpoint
  and run event elsewhere is a function of the inputs and seeds.  Set and
  hash order, which no source scan can see, is covered by the hash-seed
  rerun in ``tests/optimize/test_portfolio.py``.

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

#: The packages allowed to read nondeterministic values: telemetry stamps
#: and measures time, fault injection draws its own schedules, and the
#: service stamps queue times and draws job ids.
NONDETERMINISM_PACKAGES = (
    "repro.telemetry", "repro.profiling", "repro.faults", "repro.server",
)

_CLOCKS = (
    "time", "perf_counter", "monotonic", "clock_gettime", "process_time",
)
#: Functions whose every use reads a clock, the pid or OS entropy.
_NONDETERMINISTIC_READS = frozenset(
    {f"time.{clock}{ns}" for clock in _CLOCKS for ns in ("", "_ns")}
    | {"os.getpid", "os.urandom"}
)
#: RNG constructors that draw OS entropy when given no seed.
_SEEDABLE_RNGS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.SeedSequence"}
)


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


def _imported_names(tree):
    """Local name -> dotted origin for every import in ``tree`` (and the
    builtin ``id``)."""
    names = {"id": "id"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    root = alias.name.partition(".")[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return names


def _dotted(node, names):
    """``numpy.random.default_rng`` for ``np.random.default_rng``, else
    None when the expression is not a name chain rooted in an import."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, names)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _unseeded(call):
    """Whether a call passes no seed (no arguments, or only ``None``)."""
    return all(
        isinstance(arg, ast.Constant) and arg.value is None
        for arg in [*call.args, *(kw.value for kw in call.keywords)]
    )


def _source_call(name, call):
    """The nondeterministic source a call to ``name`` is, else None."""
    if name == "id" or name.startswith("uuid."):
        return f"{name}()"
    if name in _SEEDABLE_RNGS:
        return f"{name}()" if _unseeded(call) else None
    module = name.rpartition(".")[0]
    if module == "random" or (
        module == "numpy.random" and name != "numpy.random.Generator"
    ):
        return f"{name}()"
    return None


def _nondeterminism_sources(tree):
    """Every clock, pid, entropy, ``uuid``, ``id()`` or unseeded-RNG use.

    Clock, pid and entropy functions count wherever they are named (also
    passed uncalled, say as a ``default_factory``); the others count when
    called.
    """
    names = _imported_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _dotted(node, names)
            if name in _NONDETERMINISTIC_READS:
                found.append(name)
        elif isinstance(node, ast.Call):
            name = _dotted(node.func, names)
            if name is not None and name not in _NONDETERMINISTIC_READS:
                source = _source_call(name, node)
                if source is not None:
                    found.append(source)
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


def test_only_observability_and_service_read_nondeterminism():
    sources = [
        (module, name)
        for module, tree in _modules()
        if not any(
            module == package or module.startswith(package + ".")
            for package in NONDETERMINISM_PACKAGES
        )
        for name in _nondeterminism_sources(tree)
    ]
    assert sources == []


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


@pytest.mark.parametrize(
    "source,name",
    [
        ("import time\nt = time.time()", "time.time"),
        ("import time\nt = time.time_ns()", "time.time_ns"),
        ("import time\nt = time.perf_counter()", "time.perf_counter"),
        ("import time\nt = time.perf_counter_ns()", "time.perf_counter_ns"),
        ("import time\nt = time.monotonic()", "time.monotonic"),
        ("import time\nt = time.monotonic_ns()", "time.monotonic_ns"),
        ("import time\nt = time.clock_gettime(c)", "time.clock_gettime"),
        ("import time\nt = time.process_time()", "time.process_time"),
        ("from time import perf_counter\nt = perf_counter()",
         "time.perf_counter"),
        ("from time import monotonic as now\nt = now()", "time.monotonic"),
        ("import time as clock\nt = clock.time()", "time.time"),
        ("import time\nf = field(default_factory=time.time)", "time.time"),
        ("import os\npid = os.getpid()", "os.getpid"),
        ("import os\nsalt = os.urandom(8)", "os.urandom"),
        ("import uuid\njob = uuid.uuid4().hex", "uuid.uuid4()"),
        ("from uuid import uuid1\njob = uuid1()", "uuid.uuid1()"),
        ("key = (id(context), 3)", "id()"),
        ("import random\nx = random.random()", "random.random()"),
        ("import random\nrandom.shuffle(items)", "random.shuffle()"),
        ("import random\nrng = random.Random()", "random.Random()"),
        ("from random import choice\nx = choice(items)", "random.choice()"),
        ("import numpy as np\nx = np.random.rand(3)", "numpy.random.rand()"),
        ("import numpy as np\nnp.random.seed(0)", "numpy.random.seed()"),
        ("import numpy\nx = numpy.random.normal()", "numpy.random.normal()"),
        ("import numpy as np\nrng = np.random.default_rng()",
         "numpy.random.default_rng()"),
        ("import numpy as np\nrng = np.random.default_rng(None)",
         "numpy.random.default_rng()"),
        ("from numpy.random import default_rng\nrng = default_rng()",
         "numpy.random.default_rng()"),
        ("import numpy as np\nss = np.random.SeedSequence()",
         "numpy.random.SeedSequence()"),
    ],
)
def test_nondeterminism_scanner_sees_every_source(source, name):
    assert name in _nondeterminism_sources(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nrng = np.random.default_rng(seed)",
        "import numpy as np\nrng = np.random.default_rng(0)",
        "import numpy as np\n"
        "ss = np.random.SeedSequence(seed, spawn_key=(stage, round_i))",
        "import numpy as np\nrng = np.random.Generator(bit_generator)",
        "import random\nrng = random.Random(seed)",
        "import time\ntime.sleep(0.1)",
        "import os\nroot = os.path.join(a, b)",
        "t = self.time\nd = record.id",
        "def f(time):\n    return time.time",
    ],
)
def test_nondeterminism_scanner_ignores_seeded_and_inert_shapes(source):
    assert _nondeterminism_sources(ast.parse(source)) == []
