"""Engine selection for the generator layer.

The six *engine-sensitive* families (``engine_sensitive = True`` —
Barabási–Albert, Albert–Barabási, Bianconi–Barabási, GLP, PFP and Serrano)
carry two growth kernels and take an ``engine`` argument:

* ``"python"`` — the original scalar growth loop, the reference
  implementation whose draw sequence is the seed contract;
* ``"vector"`` — batch growth kernels: attachment targets drawn in blocks
  from precomputed kernel arrays (cumulative-weight ``searchsorted``,
  endpoint pools, batch rejection sampling, batched pair matching);
* ``"auto"`` — consult the ``REPRO_ENGINE`` environment variable, then
  pick ``vector`` at or above :data:`AUTO_VECTOR_THRESHOLD` nodes.

The vector kernels aggregate draws, so the two engines build
*distributionally equivalent* rather than identical graphs (gated by
KS/band tests), and the resolved engine joins these families' battery
cache key so cells computed by different engines never collide.

Every other family has exactly one kernel and ignores ``engine``; the
tests pin the graphs of those that once had two (waxman, plrg,
transit-stub, inet, brite) to recorded fingerprints.
"""

from __future__ import annotations

import os

__all__ = [
    "ENGINES",
    "AUTO_VECTOR_THRESHOLD",
    "REPRO_ENGINE_ENV",
    "resolve_engine",
]

#: Accepted values for every generator's ``engine`` parameter.
ENGINES = ("auto", "python", "vector")

#: ``engine="auto"`` picks the vector path at or above this many nodes.
#: Not a measured crossover: moving it would change which graph an
#: engine-sensitive family builds for a given (n, seed), and the resolved
#: engine in that family's cache key, so every cell computed between the
#: old and new threshold would be recomputed.  That is why it stays here.
AUTO_VECTOR_THRESHOLD = 6000

#: Environment variable consulted by ``engine="auto"`` (values: ``python``,
#: ``vector``, or ``auto``); explicit engine arguments always override it.
REPRO_ENGINE_ENV = "REPRO_ENGINE"


def resolve_engine(engine: str = "auto", size: int = 0) -> str:
    """Resolve an ``engine`` argument to ``"python"`` or ``"vector"``.

    Explicit choices pass through (after validation).  ``"auto"`` defers
    first to the ``REPRO_ENGINE`` environment variable — which lets CI
    force the fast path across an unmodified test suite — and then to the
    size threshold: vector at or above :data:`AUTO_VECTOR_THRESHOLD`.
    """
    if engine not in ENGINES:
        choices = ", ".join(ENGINES)
        raise ValueError(f"unknown engine {engine!r}; choose one of: {choices}")
    if engine != "auto":
        return engine
    env = os.environ.get(REPRO_ENGINE_ENV, "").strip().lower()
    if env in ("python", "vector"):
        return env
    if env not in ("", "auto"):
        choices = ", ".join(ENGINES)
        raise ValueError(
            f"invalid {REPRO_ENGINE_ENV}={env!r}; choose one of: {choices}"
        )
    return "vector" if size >= AUTO_VECTOR_THRESHOLD else "python"
