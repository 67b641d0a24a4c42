"""Every persisted file goes through :mod:`repro.durable` and the FS seam.

A rename is the commit point of every atomic write in the package, so a
direct ``os.replace`` / ``os.rename`` / ``Path.replace`` /
``Path.rename`` is a persisted file the chaos suite (which injects
faults through :class:`repro.testing.faults.FS`) cannot reach.  Only the
seam itself may call them.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: the seam's own module: the one place the real calls live
SEAM = "testing/faults.py"


def _direct_renames():
    """``(module, line, call)`` of every rename/replace that bypasses the
    seam.  ``os.replace(a, b)`` and ``os.rename(a, b)`` are matched by
    name (also when imported bare from ``os``); ``Path.replace(dst)`` and
    ``Path.rename(dst)`` by shape: a one-argument ``.replace``/``.rename``
    method call, which ``str.replace(old, new)`` and the seam's
    ``fs.replace(src, dst)`` never are."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == SEAM:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bare = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                bare |= {a.asname or a.name for a in node.names
                         if a.name in ("replace", "rename")}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in bare:
                found.append((rel, node.lineno, f"os.{func.id}"))
            elif isinstance(func, ast.Attribute) and func.attr in ("replace", "rename"):
                on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
                path_shaped = len(node.args) == 1 and not node.keywords
                if on_os or path_shaped:
                    found.append((rel, node.lineno, ast.unparse(func)))
    return found


def test_no_rename_bypasses_the_fs_seam():
    assert (SRC / SEAM).exists() and (SRC / "durable.py").exists()
    assert _direct_renames() == [], (
        "persist files with repro.durable.write_atomic (or the fs seam's "
        "rename/replace), never a direct os/Path rename")
