"""``RandomStream`` draws exactly what ``numpy.random.default_rng`` draws.

The simulation never imports numpy; its one random stream reproduces
numpy's PCG64 ``Generator`` bit for bit for the methods the model uses.
These checks compare the two draw for draw, over several seeds,
and check that the public functions that take a generator give the same
results from either.  numpy stays a test dependency; without it the
module is skipped.
"""

import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

np = pytest.importorskip("numpy", reason="the reference generator is "
                         "numpy's; without numpy there is nothing to "
                         "compare against")

from repro.faults.plan import FaultPlan  # noqa: E402
from repro.hdfs.placement import LiveHostIndex, SiteAwarePolicy  # noqa: E402
from repro.net import DnsSiteResolver, NetworkTopology  # noqa: E402
from repro.sim import rng as rng_mod  # noqa: E402
from repro.sim.rng import RandomStream  # noqa: E402
from repro.workload.schedule import build_facebook_schedule  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 7, 42, 77, 1000, 1003, 2**32 + 5, 2**200 + 3)


def pair(seed):
    return np.random.default_rng(seed), RandomStream(seed)


def weights_to_p(weights):
    """How ``GlideinFactory._negotiate`` builds ``p``."""
    total = sum(weights)
    return [w / total for w in weights]


class TestSeeding:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_draws_match(self, seed):
        gen, stream = pair(seed)
        assert [gen.random() for _ in range(8)] == \
            [stream.random() for _ in range(8)]

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError):
            RandomStream(-1)


def test_unimplemented_integer_range_is_refused():
    stream = RandomStream(0)
    assert stream.integers(5, 5 + 2**32 - 1) >= 5
    with pytest.raises(ValueError):
        stream.integers(2**32)


class TestInterleaved:
    """Long mixed sequences: a 64-bit draw between two 32-bit bounded
    draws must not drop numpy's buffered upper half, and vice versa."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_call_sequence(self, seed):
        gen, stream = pair(seed)
        plan = random.Random(seed)
        for step in range(6000):
            op = plan.randrange(9)
            if op == 0:
                n = plan.choice((1, 2, 3, 7, 100, 1000, 2**31, 2**32 - 1))
                a, b = int(gen.integers(n)), stream.integers(n)
            elif op == 1:
                lo = plan.randrange(-50, 50)
                hi = lo + plan.randrange(1, 5000)
                a, b = int(gen.integers(lo, hi)), stream.integers(lo, hi)
            elif op == 2:
                a, b = gen.random(), stream.random()
            elif op == 3:
                lo = plan.uniform(-10.0, 10.0)
                hi = lo + plan.uniform(0.0, 100.0)
                a, b = gen.uniform(lo, hi), stream.uniform(lo, hi)
            elif op == 4:
                scale = plan.choice((1.0, 0.5, 14.0, 3600.0))
                a, b = gen.exponential(scale), stream.exponential(scale)
            elif op == 5:
                w = [float(plan.randrange(0, 6)) for _ in
                     range(plan.randrange(1, 12))]
                if not any(w):
                    w[0] = 1.0
                arr = np.array(w)
                a = gen.choice(len(w), p=arr / arr.sum())
                b = stream.choice(len(w), p=weights_to_p(w))
            elif op == 6:
                n = plan.randrange(1, 60)
                k = plan.randrange(0, n + 1)
                a = list(gen.choice(n, size=k, replace=False))
                b = stream.choice(n, size=k, replace=False)
            elif op == 7:
                n = plan.randrange(0, 40)
                a, b = list(gen.permutation(n)), stream.permutation(n)
            else:
                n = plan.randrange(0, 5)
                a = list(gen.exponential(2.0, size=n))
                b = stream.exponential(2.0, size=n)
            assert a == b, f"seed {seed}, step {step}, op {op}"


class CountingStream(RandomStream):
    """Records the ziggurat layer of every exponential attempt: each
    64-bit output that is not consumed by a rejection-path uniform."""

    __slots__ = ("layers", "_uniform")

    def __init__(self, seed):
        super().__init__(seed)
        self.layers = set()
        self._uniform = False

    def _next64(self):
        out = super()._next64()
        if self._uniform:
            self._uniform = False
        else:
            self.layers.add((out >> 3) & 0xFF)
        return out

    def random(self):
        self._uniform = True
        return super().random()


class TestExponential:
    @pytest.mark.parametrize("seed", (5, 1000))
    def test_200k_draws_cover_every_layer_and_the_tail(self, seed,
                                                       monkeypatch):
        calls = {"exp": 0, "log1p": 0}

        def counted(name, fn):
            def wrapper(x):
                calls[name] += 1
                return fn(x)
            return wrapper

        monkeypatch.setattr(rng_mod, "exp", counted("exp", math.exp))
        monkeypatch.setattr(rng_mod, "log1p", counted("log1p", math.log1p))
        stream = CountingStream(seed)
        ours = stream.exponential(1.0, size=200_000)
        ref = np.random.default_rng(seed).exponential(1.0, size=200_000)
        assert ours == ref.tolist()
        assert len(stream.layers) == 256
        assert calls["log1p"] > 0   # the tail beyond the last layer
        assert calls["exp"] > 0     # the wedge rejection test

    def test_scale_and_validation(self):
        gen, stream = pair(3)
        assert [gen.exponential(14.0) for _ in range(100)] == \
            [stream.exponential(14.0) for _ in range(100)]
        with pytest.raises(ValueError):
            stream.exponential(-1.0)


class TestChoice:
    @pytest.mark.parametrize("seed", range(12))
    def test_weighted_choice_with_integer_weights(self, seed):
        gen, stream = pair(seed)
        plan = random.Random(seed)
        for _ in range(2000):
            w = [float(plan.randrange(0, 200)) for _ in
                 range(plan.randrange(1, 40))]
            w[plan.randrange(len(w))] += 1.0
            arr = np.array(w)
            assert gen.choice(len(w), p=arr / arr.sum()) == \
                stream.choice(len(w), p=weights_to_p(w))

    @pytest.mark.parametrize("seed", (0, 1, 1000))
    @pytest.mark.parametrize("n,k", [(1, 1), (5, 0), (5, 5), (40, 3),
                                     (10_000, 9_000), (10_001, 200),
                                     (10_001, 201), (30_000, 2_000),
                                     (30_000, 30_000)])
    def test_sample_without_replacement(self, seed, n, k):
        """Floyd's algorithm, and the tail shuffle numpy switches to for
        a population above 10,000 and a sample above 1/50 of it."""
        gen, stream = pair(seed)
        for _ in range(3):
            assert list(gen.choice(n, size=k, replace=False)) == \
                stream.choice(n, size=k, replace=False)

    def test_oversized_sample_is_refused(self):
        with pytest.raises(ValueError):
            RandomStream(0).choice(3, size=4, replace=False)

    def test_unsupported_form_is_refused(self):
        with pytest.raises(TypeError):
            RandomStream(0).choice(3)


class TestPermutation:
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_permutation(self, seed):
        gen, stream = pair(seed)
        for n in list(range(0, 70)) + [88, 500, 5000]:
            assert list(gen.permutation(n)) == stream.permutation(n)


class TestDuckTyping:
    """Public functions that take a generator draw the same from a numpy
    ``Generator`` as from a ``RandomStream`` seeded alike."""

    @pytest.mark.parametrize("seed", (0, 77, 1077))
    def test_build_facebook_schedule(self, seed):
        def flat(schedule):
            return ([(j.submit_time, j.bin_id, j.spec.name)
                     for j in schedule.jobs], schedule.inputs)
        for scale in (1.0, 0.25):
            a = build_facebook_schedule(np.random.default_rng(seed),
                                        scale=scale)
            b = build_facebook_schedule(RandomStream(seed), scale=scale)
            assert flat(a) == flat(b)

    @pytest.mark.parametrize("seed", (0, 1, 1001))
    def test_site_aware_policy(self, seed):
        hosts = [f"n{i}.s{i % 7}.edu" for i in range(120)]

        def placements(rng):
            topo = NetworkTopology(DnsSiteResolver())
            index = LiveHostIndex(topo)
            for h in hosts:
                index.add(h)
            policy = SiteAwarePolicy(topo, rng)
            return [policy.choose_targets(
                hosts[i % len(hosts)] if i % 3 else None, 1 + i % 5,
                set(), lambda h: True, index) for i in range(300)]
        assert placements(np.random.default_rng(seed)) == \
            placements(RandomStream(seed))

    @pytest.mark.parametrize("seed", (3, 11, 42))
    def test_fault_plan_fuzz(self, seed):
        sites = ["FNAL_FERMIGRID", "UCSDT2", "NWICG_NDCMS", "Nebraska"]
        a = FaultPlan.fuzz(np.random.default_rng(seed), sites, 900.0,
                           n_events=20)
        b = FaultPlan.fuzz(RandomStream(seed), sites, 900.0, n_events=20)
        assert a.to_list() == b.to_list()


def test_committed_ziggurat_tables_match_numpy():
    """``tools/gen_ziggurat_tables.py --check`` re-extracts numpy's
    tables and compares them with ``repro/sim/_ziggurat.py``."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "gen_ziggurat_tables.py"),
         "--check"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
