"""Seeded inputs for the benchmark, built once per seed into a cache it owns.

``<cache>/seed<N>/synth/v8_sf0.01`` holds the library's own synthetic tile,
document and zone world (``raster_functions_ray.synth``), built with the
module's ``SEED`` set to the benchmark seed.  The library finds it through
``RFR_SYNTH_CACHE``, which must point at ``<cache>/seed<N>/synth`` before
``raster_functions_ray.synth`` is imported; the queries take the world's
directory itself as their ``sf_dir`` (its name carries the ``sf0.01`` token
the library parses).

Run as a script it builds one seed's inputs (``python3 datagen.py <dir> <seed>``);
the benchmark does this in a child process so that the memory used here never
counts towards the measured process.
"""

from __future__ import annotations

import os
import sys

SF = 0.01


def seed_dir(cache_root: str, seed: int) -> str:
    return os.path.join(cache_root, f"seed{seed}")


def synth_cache(cache_root: str, seed: int) -> str:
    return os.path.join(seed_dir(cache_root, seed), "synth")


def world_dir(cache_root: str, seed: int) -> str:
    return os.path.join(synth_cache(cache_root, seed), f"v8_sf{SF}")


def build(cache_root: str, seed: int) -> None:
    """Build the world for ``seed`` unless it is cached already."""
    os.environ["RFR_SYNTH_CACHE"] = synth_cache(cache_root, seed)
    from raster_functions_ray import synth

    if synth.CACHE_ROOT != os.environ["RFR_SYNTH_CACHE"]:
        raise RuntimeError("raster_functions_ray.synth was imported before "
                           "RFR_SYNTH_CACHE was set")
    synth.SEED = seed
    synth.synth_dir(SF)


def is_built(cache_root: str, seed: int) -> bool:
    return os.path.exists(os.path.join(world_dir(cache_root, seed), "_DONE"))


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
