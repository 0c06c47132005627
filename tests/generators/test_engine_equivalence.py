"""Engine suite: pinned single-kernel graphs and two-kernel equivalence.

Two contracts, per :mod:`repro.generators.engine`:

* **single-kernel** generators (``engine_sensitive = False``) must build
  the graph recorded for each (family, n, seed) — identical
  :meth:`Graph.fingerprint` to the pinned table below — whatever engine
  is requested;
* **engine-sensitive** generators (``engine_sensitive = True``) must
  produce *distributionally equivalent* graphs: identical node counts,
  mean degree within a few percent, and a small two-sample KS distance
  between degree distributions pooled across seeds.

Plus the selection machinery itself: explicit > environment > size
threshold, validated everywhere, and the resolved engine joining the
battery cache identity for engine-sensitive generators only.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    AlbertBarabasiGenerator,
    BarabasiAlbertGenerator,
    BianconiBarabasiGenerator,
    BriteGenerator,
    GlpGenerator,
    InetGenerator,
    PfpGenerator,
    PlrgGenerator,
    SerranoGenerator,
    TransitStubGenerator,
    WaxmanGenerator,
)
from repro.generators import engine as engine_mod
from repro.generators.engine import AUTO_VECTOR_THRESHOLD, resolve_engine
from repro.stats.distributions import ks_distance

# ---------------------------------------------------------------- selection


class TestResolveEngine:
    def test_explicit_choices_pass_through(self):
        assert resolve_engine("python", 10**9) == "python"
        assert resolve_engine("vector", 1) == "vector"

    def test_auto_uses_size_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine("auto", AUTO_VECTOR_THRESHOLD - 1) == "python"
        assert resolve_engine("auto", AUTO_VECTOR_THRESHOLD) == "vector"

    def test_env_overrides_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        assert resolve_engine("auto", 1) == "vector"
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert resolve_engine("auto", 10**9) == "python"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        assert resolve_engine("python", 10**9) == "python"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("fortran", 100)

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fortran")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            resolve_engine("auto", 100)

    def test_generator_setter_validates(self):
        generator = WaxmanGenerator()
        with pytest.raises(ValueError, match="unknown engine"):
            generator.engine = "fortran"

    @given(
        size=st.integers(min_value=1, max_value=3 * AUTO_VECTOR_THRESHOLD),
        choice=st.sampled_from(["auto", "python", "vector"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_resolution_is_total_and_consistent(self, size, choice):
        # Manual env scrub (not monkeypatch): hypothesis runs many examples
        # per test call, which function-scoped fixtures can't wrap.
        import os

        saved_env = os.environ.pop("REPRO_ENGINE", None)
        try:
            resolved = resolve_engine(choice, size)
            assert resolved in ("python", "vector")
            if choice != "auto":
                assert resolved == choice
            else:
                assert resolved == (
                    "vector" if size >= AUTO_VECTOR_THRESHOLD else "python"
                )
        finally:
            if saved_env is not None:
                os.environ["REPRO_ENGINE"] = saved_env


class TestCacheIdentity:
    def test_engine_never_in_params(self):
        waxman = WaxmanGenerator()
        waxman.engine = "vector"
        for generator in (waxman, SerranoGenerator(engine="vector")):
            assert "engine" not in generator.params()

    def test_order_preserving_cache_params_engine_free(self):
        generator = WaxmanGenerator()
        generator.engine = "vector"
        assert "engine" not in generator.cache_params(500)

    def test_sensitive_cache_params_carry_resolved_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        generator = SerranoGenerator(engine="vector")
        assert generator.cache_params(500)["engine"] == "vector"
        generator.engine = "auto"
        assert generator.cache_params(500)["engine"] == "python"
        assert (
            generator.cache_params(AUTO_VECTOR_THRESHOLD)["engine"] == "vector"
        )

    def test_classification(self):
        sensitive = (
            SerranoGenerator, BarabasiAlbertGenerator, AlbertBarabasiGenerator,
            BianconiBarabasiGenerator, GlpGenerator, PfpGenerator,
        )
        preserving = (
            WaxmanGenerator, PlrgGenerator, TransitStubGenerator,
            InetGenerator, BriteGenerator,
        )
        assert all(cls.engine_sensitive for cls in sensitive)
        assert not any(cls.engine_sensitive for cls in preserving)


# --------------------------------------------- single-kernel: pinned graphs

SINGLE_KERNEL = {
    "waxman": WaxmanGenerator,
    "plrg": PlrgGenerator,
    "transit-stub": TransitStubGenerator,
    "inet": InetGenerator,
    "brite": BriteGenerator,  # geometry=True is the default
    "brite-flat": lambda: BriteGenerator(geometry=False),
}
ORDER_PRESERVING = [name for name in SINGLE_KERNEL if name != "brite-flat"]

#: (family, n, seed, Graph.fingerprint) recorded when each of these
#: families still had both a python and a vector kernel and the two
#: agreed on every point.  transit-stub needs n >= 128; n = 6000 is the
#: size at which engine="auto" used to switch kernels.
PINNED_FINGERPRINTS = [
    ("waxman", 160, 0, 1250572423696743561),
    ("waxman", 160, 7, 1361568775926105897),
    ("waxman", 700, 0, 2662003079409007206),
    ("waxman", 700, 7, 2758132468706863598),
    ("plrg", 160, 0, 458647714533054183),
    ("plrg", 160, 7, 4005244608392275126),
    ("plrg", 700, 0, 962216639801139037),
    ("plrg", 700, 7, 372641905515492551),
    ("transit-stub", 160, 0, 1052856655517001839),
    ("transit-stub", 160, 7, 2531084075293068919),
    ("transit-stub", 700, 0, 3715605739172856264),
    ("transit-stub", 700, 7, 1492609815607110186),
    ("inet", 160, 0, 2436772264601866489),
    ("inet", 160, 7, 2215329312646926920),
    ("inet", 700, 0, 1860840782347429975),
    ("inet", 700, 7, 96934146852551223),
    ("brite", 160, 0, 1889844739097017684),
    ("brite", 160, 7, 184320023712891706),
    ("brite", 700, 0, 1238276701677816674),
    ("brite", 700, 7, 3089567821717418325),
    ("brite", 400, 1, 4440146704432613964),
    ("brite", 400, 2, 156833064456814454),
    ("brite-flat", 400, 1, 2783801813849817744),
    ("brite-flat", 400, 2, 3879217413336620255),
    ("waxman", 6000, 1, 2895548242042593541),
    ("plrg", 6000, 1, 3786894337253815699),
    ("transit-stub", 6000, 1, 495363463810158098),
    ("inet", 6000, 1, 2906797141815594546),
    ("brite", 6000, 1, 3925470553666272858),
]


PINNED = {(name, n, seed): fp for name, n, seed, fp in PINNED_FINGERPRINTS}


def _build(name, engine, n, seed):
    generator = SINGLE_KERNEL[name]()
    generator.engine = engine
    return generator.generate(n, seed=seed)


class TestFingerprintIdentity:
    """Either engine request builds the pinned graph of the one kernel."""

    @pytest.mark.parametrize("name", sorted(ORDER_PRESERVING))
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [160, 700])  # transit-stub needs n >= 128
    def test_same_graph_from_both_engines(self, name, seed, n):
        python_graph = _build(name, "python", n, seed)
        vector_graph = _build(name, "vector", n, seed)
        assert python_graph.fingerprint() == vector_graph.fingerprint()
        assert python_graph.fingerprint() == PINNED[(name, n, seed)]

    def test_brite_geometric_variant_identical(self):
        for seed in (1, 2):
            python_graph = _build("brite", "python", 400, seed)
            vector_graph = _build("brite", "vector", 400, seed)
            assert python_graph.fingerprint() == vector_graph.fingerprint()
            assert python_graph.fingerprint() == PINNED[("brite", 400, seed)]


class TestPinnedFingerprints:
    @pytest.mark.parametrize("name,n,seed,fingerprint", PINNED_FINGERPRINTS)
    def test_graph_matches_recorded_fingerprint(self, name, n, seed, fingerprint):
        graph = SINGLE_KERNEL[name]().generate(n, seed=seed)
        assert graph.fingerprint() == fingerprint


class TestAutoThresholdStraddle:
    """engine="auto" must swap kernels exactly at the threshold, building
    the graph of whichever engine it resolved to on each side."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        offset=st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_fingerprints_stable_across_threshold(self, seed, offset):
        # Manual patching: hypothesis generates many inputs per test call,
        # which pytest's function-scoped monkeypatch fixture can't wrap.
        import os

        threshold = 150
        saved_threshold = engine_mod.AUTO_VECTOR_THRESHOLD
        saved_env = os.environ.pop("REPRO_ENGINE", None)
        engine_mod.AUTO_VECTOR_THRESHOLD = threshold
        try:
            n = threshold + offset
            generator = BarabasiAlbertGenerator(m=2)  # engine defaults to auto
            expected = "vector" if n >= threshold else "python"
            assert generator.resolve_engine(n) == expected
            assert generator.cache_params(n)["engine"] == expected
            auto_graph = generator.generate(n, seed=seed)
            pinned = BarabasiAlbertGenerator(m=2, engine=expected).generate(
                n, seed=seed
            )
            assert auto_graph.fingerprint() == pinned.fingerprint()
        finally:
            engine_mod.AUTO_VECTOR_THRESHOLD = saved_threshold
            if saved_env is not None:
                os.environ["REPRO_ENGINE"] = saved_env


# ------------------------------------------------ engine-sensitive: KS bands

ENGINE_SENSITIVE = {
    "barabasi-albert": lambda e: BarabasiAlbertGenerator(m=2, engine=e),
    "albert-barabasi": lambda e: AlbertBarabasiGenerator(engine=e),
    "bianconi-barabasi": lambda e: BianconiBarabasiGenerator(m=2, engine=e),
    "glp": lambda e: GlpGenerator(engine=e),
    "pfp": lambda e: PfpGenerator(engine=e),
    "serrano": lambda e: SerranoGenerator(engine=e),
}

#: Pooled-degree KS ceiling.  Same-engine/different-seed runs of these
#: models sit around 0.01-0.03 at this size; 0.08 catches a real kernel
#: divergence while staying robust to seed noise.
KS_CEILING = 0.08

#: Relative mean-degree tolerance between engines (pooled across seeds).
MEAN_DEGREE_RTOL = 0.08


class TestDistributionalEquivalence:
    @pytest.mark.parametrize("name", sorted(ENGINE_SENSITIVE))
    def test_degree_distributions_match(self, name):
        make = ENGINE_SENSITIVE[name]
        n, seeds = 1500, (11, 23, 47)
        python_degrees = []
        vector_degrees = []
        python_edges = vector_edges = 0
        for seed in seeds:
            python_graph = make("python").generate(n, seed=seed)
            vector_graph = make("vector").generate(n, seed=seed)
            assert python_graph.num_nodes == n
            assert vector_graph.num_nodes == n
            python_degrees.extend(
                python_graph.degree(u) for u in python_graph.nodes()
            )
            vector_degrees.extend(
                vector_graph.degree(u) for u in vector_graph.nodes()
            )
            python_edges += python_graph.num_edges
            vector_edges += vector_graph.num_edges
        assert ks_distance(python_degrees, vector_degrees) < KS_CEILING
        assert vector_edges == pytest.approx(
            python_edges, rel=MEAN_DEGREE_RTOL
        )

    def test_serrano_conserves_users_and_weight(self):
        python_run = SerranoGenerator(engine="python").generate_detailed(
            900, seed=5
        )
        vector_run = SerranoGenerator(engine="vector").generate_detailed(
            900, seed=5
        )
        assert python_run.total_users == vector_run.total_users
        assert vector_run.graph.total_weight == pytest.approx(
            python_run.graph.total_weight, rel=0.05
        )

    def test_bb_custom_fitness_callable_still_works(self):
        # Single-valued fitness reduces BB to BA on either engine.
        make = lambda e: BianconiBarabasiGenerator(
            m=2, fitness=lambda rng: 1.0, engine=e
        )
        python_graph = make("python").generate(600, seed=3)
        vector_graph = make("vector").generate(600, seed=3)
        assert python_graph.num_edges == vector_graph.num_edges
        degrees = lambda g: sorted(g.degree(u) for u in g.nodes())
        assert (
            ks_distance(degrees(python_graph), degrees(vector_graph))
            < KS_CEILING
        )


# --------------------------------------------------------------- smoke: env


class TestEnvSelection:
    def test_env_flips_a_default_generator(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        generator = BarabasiAlbertGenerator(m=2)
        assert generator.resolve_engine(50) == "vector"
        graph = generator.generate(80, seed=1)
        monkeypatch.setenv("REPRO_ENGINE", "python")
        reference = BarabasiAlbertGenerator(m=2, engine="vector").generate(
            80, seed=1
        )
        assert graph.fingerprint() == reference.fingerprint()
