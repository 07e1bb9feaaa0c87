"""Code nothing calls gets deleted: every top-level def or class of the
library must be named somewhere in the repo's Python besides its own
definition (a registry entry, a call, a test or a script).  And there is one
implementation of storage-aligned reads, ``stages/aligned.py``, and one
caller of ``Dataset.join``, ``stages/join.py``."""

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


def test_only_aligned_opens_parquet_among_stages():
    """Storage-aligned units are planned and read in one module: no other
    stage opens a parquet file itself."""
    stages = ROOT / "raster_functions_ray" / "stages"
    opening = [f.name for f in sorted(stages.glob("*.py")) if f.name != "aligned.py"
               and re.search(r"pyarrow\.parquet|\bpq\.|ParquetFile|read_row_groups?\(",
                             f.read_text())]
    assert not opening, f"open parquet outside stages/aligned.py: {opening}"


def test_only_stages_join_calls_dataset_join():
    """One guarded exchange join: every ``Dataset.join`` of the library goes
    through ``stages.join.hash_join``."""
    lib = ROOT / "raster_functions_ray"
    calling = [str(f.relative_to(lib)) for f in sorted(lib.rglob("*.py"))
               if f != lib / "stages" / "join.py"
               and re.search(r"\.join\([^()]*(\([^()]*\)[^()]*)*join_type=",
                             f.read_text(), re.S)]
    assert not calling, f"Dataset.join outside stages/join.py: {calling}"
