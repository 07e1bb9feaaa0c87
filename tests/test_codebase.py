"""Code nothing calls gets deleted: every top-level def or class of the
library must be named somewhere in the repo's Python besides its own
definition (a registry entry, a call, a test or a script)."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_library_def_is_referenced():
    texts = {f.relative_to(ROOT): f.read_text() for f in ROOT.rglob("*.py")
             if not any(p.startswith(".") for p in f.relative_to(ROOT).parts)}
    names = collections.Counter()
    for text in texts.values():
        names.update(re.findall(r"[A-Za-z_]\w*", text))
    dead = [f"{path}:{n.lineno} {n.name}"
            for path, text in texts.items() if path.parts[0] == "raster_functions_ray"
            for n in ast.parse(text).body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and names[n.name] == 1]
    assert not dead, f"{len(dead)} unreferenced: " + ", ".join(dead)
