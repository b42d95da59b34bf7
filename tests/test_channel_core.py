"""Tests for the unified max-min fair channel core (`repro.sim.channel`).

The centrepiece is a randomized property test comparing the incremental
engine's allocations against a brute-force O(n²) progressive-filling
reference over random constraint topologies (hypothesis-driven, and a
seeded submit/abort harness that drives region passes through their
expansions, in-region dissolves and closed-region groups), a
completion-time oracle running whole random workloads against a
brute-force fluid reference, targeted region-seeding, group-pinning and
in-region finishing cases, plus exact-timestamp tests for
multi-bottleneck completions, uniform (virtual-clock) groups, the
slack-constraint shortcut, fast-path tie tolerance, and per-site
partition decoupling.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import FairQueue, Simulator
from repro.sim.util import gather_safe
from repro.sim.channel import TIE


def reference_max_min(demand_links, capacities):
    """Brute-force progressive filling.

    ``demand_links``: list of constraint-index lists (one per demand).
    ``capacities``: constraint capacities by index.
    Returns the max-min fair rate per demand.
    """
    rates = [0.0] * len(demand_links)
    frozen = [False] * len(demand_links)
    residual = list(capacities)
    while not all(frozen):
        # Fair share offered by each constraint to its unfrozen demands.
        best_share, best_c = None, None
        for c, cap in enumerate(capacities):
            users = [i for i, links in enumerate(demand_links)
                     if not frozen[i] and c in links]
            if not users:
                continue
            share = residual[c] / len(users)
            if best_share is None or share < best_share:
                best_share, best_c = share, c
        if best_c is None:  # unconstrained leftovers (cannot happen here)
            break
        for i, links in enumerate(demand_links):
            if not frozen[i] and best_c in links:
                frozen[i] = True
                rates[i] = best_share
                for c in links:
                    residual[c] -= best_share
    return rates


def start_demands(queue, constraints, demand_links, size=1e9):
    """Submit one large demand per constraint-index list; returns demands."""
    return [queue.submit(size, [constraints[c] for c in links])
            for links in demand_links]


class TestAgainstBruteForceReference:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_topology_allocations_match(self, data):
        n_constraints = data.draw(st.integers(2, 8), label="constraints")
        capacities = data.draw(
            st.lists(st.floats(min_value=10.0, max_value=1000.0),
                     min_size=n_constraints, max_size=n_constraints),
            label="capacities")
        n_demands = data.draw(st.integers(1, 14), label="demands")
        demand_links = [
            sorted(data.draw(
                st.sets(st.integers(0, n_constraints - 1), min_size=1,
                        max_size=min(4, n_constraints)),
                label=f"links{i}"))
            for i in range(n_demands)]

        sim = Simulator()
        queue = FairQueue(sim)
        cons = [queue.constraint(f"c{i}", cap)
                for i, cap in enumerate(capacities)]
        demands = start_demands(queue, cons, demand_links)
        sim.run(until=0.0)  # process the t=0 filling pass only

        expected = reference_max_min(demand_links, capacities)
        for d, want in zip(demands, expected):
            have = d.rate if d._group is None else d._group.share()
            assert have == pytest.approx(want, rel=1e-9), (
                f"{demand_links}: got {[x.rate for x in demands]}, "
                f"want {expected}")

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_arrivals_in_stages_still_match_reference(self, data):
        """Max-min must hold after incremental arrivals, not only for a
        single batch: later arrivals force partial re-rating."""
        caps = data.draw(st.lists(st.floats(50.0, 500.0), min_size=3,
                                  max_size=5), label="caps")
        n = len(caps)
        first = [sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                          max_size=2), label=f"f{i}"))
                 for i in range(data.draw(st.integers(1, 5), label="nf"))]
        second = [sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                           max_size=2), label=f"s{i}"))
                  for i in range(data.draw(st.integers(1, 5), label="ns"))]

        sim = Simulator()
        queue = FairQueue(sim)
        cons = [queue.constraint(f"c{i}", cap) for i, cap in enumerate(caps)]
        d1 = start_demands(queue, cons, first)
        sim.run(until=0.5)
        d2 = start_demands(queue, cons, second, size=1e9)
        sim.run(until=0.5)  # flush the second filling pass (same instant)

        expected = reference_max_min(first + second, caps)
        for d, want in zip(d1 + d2, expected):
            have = d.rate if d._group is None else d._group.share()
            assert have == pytest.approx(want, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_interleaved_arrivals_departures_match_reference(self, data):
        """Single-demand arrivals and departures — the sub-component
        fast-path surface — interleaved at distinct instants.  After every
        change the live allocation must equal the brute-force reference,
        across slack-bound flips as constraints load up and drain out."""
        caps = data.draw(st.lists(st.floats(20.0, 800.0), min_size=3,
                                  max_size=6), label="caps")
        n = len(caps)
        sim = Simulator()
        q = FairQueue(sim)
        cons = [q.constraint(f"c{i}", cap) for i, cap in enumerate(caps)]
        live = []  # (demand, constraint-index list)
        n_ops = data.draw(st.integers(4, 12), label="ops")
        for op in range(n_ops):
            depart = live and data.draw(st.booleans(), label=f"dep{op}")
            if depart:
                victim = data.draw(st.integers(0, len(live) - 1),
                                   label=f"v{op}")
                d, _ = live.pop(victim)
                q.abort(d, RuntimeError("preempted"))
            else:
                links = sorted(data.draw(
                    st.sets(st.integers(0, n - 1), min_size=1,
                            max_size=min(3, n)), label=f"l{op}"))
                d = q.submit(1e12, [cons[c] for c in links])
                d.done.defused()
                live.append((d, links))
            sim.run(until=sim.now)  # flush any same-instant pass
            expected = reference_max_min([l for _, l in live], caps)
            for (d, _), want in zip(live, expected):
                have = d.rate if d._group is None else d._group.share()
                assert have == pytest.approx(want, rel=1e-9), (
                    f"after op {op}: {[l for _, l in live]}")
            sim.run(until=sim.now + 0.25)  # advance between ops


def live_rate(d):
    return d.rate if d._group is None else d._group.share()


def assert_tied(got, want):
    """``got`` equals ``want`` up to float order (the channel's TIE)."""
    assert got >= want * TIE and want >= got * TIE, (got, want)


def run_region_harness(seed, n_ops):
    """One seeded random topology under ``n_ops`` submit/abort ops with
    finite sizes (so bottleneck timers, drains and group clocks fire
    between ops).  After every op, every live rate must match the
    brute-force reference.  Returns the queue for counter checks."""
    rng = random.Random(seed)
    sim = Simulator()
    q = FairQueue(sim)
    n_cons = rng.randint(3, 30)
    caps = [rng.choice((rng.uniform(20.0, 200.0), 100.0, 50.0))
            for _ in range(n_cons)]
    cons = [q.constraint(f"c{i}", cap) for i, cap in enumerate(caps)]
    live = []  # (demand, constraint-index list)
    for op in range(n_ops):
        live = [(d, links) for d, links in live if not d.done.triggered]
        if live and rng.random() < 0.3:
            d, _ = live.pop(rng.randrange(len(live)))
            q.abort(d, RuntimeError("preempted"))
        else:
            k = rng.choice((1, 2, 2, 3, 3, 4))
            links = sorted(rng.sample(range(n_cons), min(k, n_cons)))
            d = q.submit(rng.uniform(10.0, 2000.0), [cons[c] for c in links])
            d.done.defused()
            live.append((d, links))
        sim.run(until=sim.now)  # flush the same-instant pass
        live = [(d, links) for d, links in live if not d.done.triggered]
        expected = reference_max_min([l for _, l in live], caps)
        for (d, links), want in zip(live, expected):
            assert live_rate(d) == pytest.approx(want, rel=1e-9), (
                f"seed {seed} op {op}: demand on {links}")
        sim.run(until=sim.now + rng.choice((0.0, 0.5, 2.0, 5.0)))
    return q


class TestRegionPass:
    """Region passes (re-rate the dirty neighbourhood, certify with the
    bottleneck property, expand where the certificate fails) against
    brute-force progressive filling."""

    def test_seeded_topologies_match_reference(self, monkeypatch):
        """Also drives every in-region finish: groups dissolved mid-pass
        (inexact pins, levels below the share) and groups formed in
        closed regions."""
        dissolves = []
        dissolve_into = FairQueue._dissolve_into

        def counting_dissolve(self, group, fresh):
            dissolves.append(len(group.members))
            dissolve_into(self, group, fresh)

        monkeypatch.setattr(FairQueue, "_dissolve_into", counting_dissolve)
        passes = expansions = groups = 0
        for seed in range(200):
            q = run_region_harness(seed, 60 + seed % 21)
            passes += q.rebalances
            expansions += q.region_expansions
            groups += q.uniform_groups
        assert passes > 0
        assert expansions > 0
        assert dissolves and groups > 0

    def test_region_pass_rates_only_the_dirty_neighbourhood(self):
        """A chain of five demands linked through shared constraints, each
        pair bottlenecked at its own level: an arrival at the far end
        re-rates only its two-demand neighbourhood, not the six-demand
        component, and stays exact."""
        sim = Simulator()
        q = FairQueue(sim)
        caps = [100.0, 60.0, 100.0, 80.0, 100.0, 100.0]
        links = [q.constraint(f"l{i}", cap) for i, cap in enumerate(caps)]
        chain = [q.submit(1e6, [links[i], links[i + 1]]) for i in range(5)]
        sim.run(until=1.0)
        passes, hist = q.rebalances, list(q.pass_size_hist)
        late = q.submit(1e6, [links[5]])
        sim.run(until=1.0)
        assert q.rebalances == passes + 1
        assert q.pass_size_hist[2] == hist[2] + 1  # 2 demands re-rated
        demand_links = [[i, i + 1] for i in range(5)] + [[5]]
        want = reference_max_min(demand_links, caps)
        for d, r in zip(chain + [late], want):
            assert live_rate(d) == pytest.approx(r, rel=1e-9)


def reference_finish_times(caps, jobs):
    """Brute-force fluid run: ``jobs`` is a list of ``(arrive, links,
    size, abort)`` (``abort`` None or an absolute time).  Between events
    every live demand drains at its :func:`reference_max_min` rate.
    Returns each job's finish time, or None if it was aborted first."""
    n = len(jobs)
    remaining = [size for _, _, size, _ in jobs]
    finish = [None] * n
    state = ["pending"] * n  # -> live -> done | aborted
    t = 0.0
    while True:
        for i, (arrive, _, _, abort) in enumerate(jobs):
            if state[i] == "pending" and arrive <= t:
                state[i] = "live"
            if state[i] == "live" and abort is not None and abort <= t:
                state[i] = "aborted"
        live = [i for i in range(n) if state[i] == "live"]
        upcoming = [a for a, _, _, _ in jobs if a > t]
        upcoming += [jobs[i][3] for i in live if jobs[i][3] is not None]
        if not live and not upcoming:
            return finish
        rates = reference_max_min([jobs[i][1] for i in live], caps)
        step = min(upcoming) - t if upcoming else math.inf
        for i, r in zip(live, rates):
            step = min(step, remaining[i] / r)
        for i, r in zip(live, rates):
            remaining[i] -= r * step
        t += step
        for i in live:
            if remaining[i] <= 1e-9 * jobs[i][2]:
                state[i] = "done"
                finish[i] = t


def run_completion_oracle(seed, ties):
    """One seeded random topology of finite demands with staggered (and
    same-instant) arrivals and aborts, run to completion.  ``ties`` draws
    round capacities and sizes and duplicates demands, so demands often
    sit at one level on several saturated constraints (sizes stay large
    next to ``FairQueue.EPSILON``, which may finish a demand that much
    early).  Returns the queue and the jobs' finish times next to the
    reference's."""
    rng = random.Random(seed)
    sim = Simulator()
    q = FairQueue(sim)
    n_cons = rng.randint(2, 8)
    if ties:
        caps = [rng.choice((5e5, 1e6, 1.5e6)) for _ in range(n_cons)]
    else:
        caps = [rng.choice((rng.uniform(20.0, 200.0), 100.0, 50.0))
                for _ in range(n_cons)]
    cons = [q.constraint(f"c{i}", cap) for i, cap in enumerate(caps)]
    abort_within = 2.0 if ties else 20.0
    jobs = []
    for _ in range(rng.randint(2, 6) if ties else rng.randint(3, 14)):
        if ties:
            arrive = rng.choice((0.0, 0.0, 0.5))
            size = rng.choice((1e4, 2e4, 3e4))
        else:
            arrive = rng.choice((0.0, 0.0, 5.0, rng.uniform(0.0, 30.0)))
            size = rng.uniform(10.0, 2000.0)
        links = sorted(rng.sample(range(n_cons),
                                  min(rng.choice((1, 2, 3, 4)), n_cons)))
        for _ in range(rng.choice((1, 2)) if ties else 1):
            abort = (arrive + rng.uniform(0.01, abort_within)
                     if rng.random() < 0.25 else None)
            jobs.append((arrive, links, size, abort))
    finish = [None] * len(jobs)

    def start(i):
        _, links, size, abort = jobs[i]
        d = q.submit(size, [cons[c] for c in links])
        d.done.defused()
        d.done.callbacks.append(
            lambda ev: finish.__setitem__(i, sim.now) if ev.ok else None)
        if abort is not None:
            sim.call_at(abort, lambda _: q.abort(d, RuntimeError("abort")))

    for i, (arrive, _, _, _) in enumerate(jobs):
        sim.call_at(arrive, lambda _, i=i: start(i))
    sim.run()
    return q, finish, reference_finish_times(caps, jobs)


class TestCompletionOracle:
    """Whole runs against a brute-force fluid reference: every demand
    must finish, and at the reference's instant.  Rate checks alone miss
    a demand whose rate is right but whose bottleneck timer never fires
    (rare: it takes a demand tied at two saturated constraints losing the
    recorded one, hence the many tie-prone runs)."""

    @pytest.mark.parametrize("ties,seeds", [(False, 400), (True, 2000)])
    def test_seeded_runs_finish_at_reference_times(self, ties, seeds):
        for seed in range(seeds):
            q, have, want = run_completion_oracle(seed, ties)
            assert not q._live, f"seed {seed}: {len(q._live)} left live"
            for i, (h, w) in enumerate(zip(have, want)):
                assert (h is None) == (w is None), f"seed {seed} job {i}"
                if w is not None:
                    assert h == pytest.approx(w, rel=1e-6), (
                        f"seed {seed} job {i}")


class TestBottleneckSeeding:
    """Region passes seed only the demands a change can move: those
    recorded-bottlenecked on a dirty constraint (or unrated), plus every
    foreign demand on a group-owned one."""

    def test_departure_freeing_nobodys_bottleneck_runs_no_pass(self):
        """s (bottlenecked at b) ties with x on c, so the departure fast
        path declines; but nobody is recorded-bottlenecked at c, so the
        pass seeds nobody and re-rates nothing."""
        sim = Simulator()
        q = FairQueue(sim)
        c = q.constraint("c", 100.0)
        b = q.constraint("b", 50.0)
        s = q.submit(1e6, [c, b])
        x = q.submit(1e6, [c])
        sim.run(until=1.0)
        assert (s._bneck, x._bneck) == (b, c)
        passes = q.rebalances
        q.abort(x, RuntimeError("cancelled"))
        sim.run(until=1.0)
        assert q.departure_fast_paths == 0
        assert q.rebalances == passes
        assert s.rate == pytest.approx(reference_max_min([[0, 1]],
                                                         [100.0, 50.0])[0])

    def test_arrival_squeezing_an_incumbent_expands_the_region(self):
        """y seeds alone (s is bottlenecked at b); y's level on c is
        below s's rate, so the certificate pulls s in once."""
        sim = Simulator()
        q = FairQueue(sim)
        c = q.constraint("c", 100.0)
        b = q.constraint("b", 70.0)
        s = q.submit(1e6, [c, b])
        sim.run(until=1.0)
        passes, expansions = q.rebalances, q.region_expansions
        y = q.submit(1e6, [c])
        sim.run(until=1.0)
        assert q.rebalances == passes + 1
        assert q.region_expansions == expansions + 1
        want = reference_max_min([[0, 1], [0]], [100.0, 70.0])
        assert [s.rate, y.rate] == pytest.approx(want, rel=1e-9)

    def test_group_owned_constraint_seeds_every_foreign_demand(self):
        """Seeding an owned constraint by bottleneck alone leaves the
        group's recorded foreign load stale; a later member abort then
        overloads the shared constraint (this seed did, at op 8)."""
        run_region_harness(14, 74)

    def test_stale_member_rates_never_join_the_region(self):
        """After a join the old members' ``rate`` still reads the old
        share (25 > 20).  A region level of 23 on the shared constraint
        pulls the faster foreign f3 in, but never a member: the pin
        holds and one pass re-rates the foreign demands."""
        sim = Simulator()
        q = FairQueue(sim)
        caps = [100.0, 163.0, 40.0, 30.0] + [100.0] * 5
        src, site, z, x, *privates = (q.constraint(f"c{i}", cap)
                                      for i, cap in enumerate(caps))
        members = [q.submit(1e6, [src, site, privates[i]]) for i in range(4)]
        sim.run(until=1.0)
        members.append(q.submit(1e6, [src, site, privates[4]]))
        group = members[0]._group
        assert members[4]._group is group and members[0].rate == 25.0
        f3 = q.submit(1e6, [site, z])
        g = q.submit(1e6, [x])
        f1 = q.submit(1e6, [site, x])
        g.done.defused()
        sim.run(until=2.0)
        assert (f1.rate, f1._bneck) == (15.0, x)
        passes, expansions = q.rebalances, q.region_expansions
        q.abort(g, RuntimeError("cancelled"))
        sim.run(until=2.0)
        assert q.rebalances == passes + 1
        assert q.region_expansions == expansions + 1
        assert members[0]._group is group
        want = reference_max_min([[0, 1, 4 + i] for i in range(5)]
                                 + [[1, 2], [1, 3]], caps)
        have = [live_rate(d) for d in members + [f3, f1]]
        assert have == pytest.approx(want, rel=1e-9)


class TestInRegionFinishes:
    """Closed regions and the cases a region pass finishes by growing R
    and filling again: one pass per batch, exact rates."""

    def test_inexact_pin_dissolves_in_region(self, monkeypatch):
        """site's fair share 120/5 = 24 falls below the clock share 25:
        the pin is inexact, so the pass dissolves the group, its members
        join the region, and the same pass re-rates all five."""
        dissolved = []
        dissolve_into = FairQueue._dissolve_into

        def spy(self, group, fresh):
            dissolved.append(group)
            dissolve_into(self, group, fresh)

        monkeypatch.setattr(FairQueue, "_dissolve_into", spy)
        sim = Simulator()
        q = FairQueue(sim)
        caps = [100.0, 120.0, 300.0] + [100.0] * 4
        src, site, fp, *privates = (q.constraint(f"c{i}", cap)
                                    for i, cap in enumerate(caps))
        members = [q.submit(1e6, [src, site, privates[i]]) for i in range(4)]
        sim.run(until=1.0)
        group = members[0]._group
        assert group is not None and not dissolved
        passes = q.rebalances
        foreign = q.submit(1e6, [site, fp])
        sim.run(until=1.0)
        assert dissolved == [group]
        assert q.rebalances == passes + 1
        want = reference_max_min([[0, 1, 3 + i] for i in range(4)]
                                 + [[1, 2]], caps)
        have = [live_rate(d) for d in members + [foreign]]
        assert have == pytest.approx(want, rel=1e-9)

    def test_disjoint_components_form_one_group_each(self):
        """Two single-bottleneck components dirtied at one instant: one
        closed region, one pass, and a group at each bottleneck."""
        sim = Simulator()
        q = FairQueue(sim)
        srcs = [q.constraint(f"src{j}", 100.0) for j in range(2)]
        demands = [q.submit(1e6, [srcs[j], q.constraint(f"p{j}{i}", 200.0)])
                   for j in range(2) for i in range(3)]
        sim.run(until=0.0)
        assert q.rebalances == 1
        assert q.uniform_groups == 2
        groups = [d._group for d in demands]
        assert groups[0] is groups[1] is groups[2] is not None
        assert groups[3] is groups[4] is groups[5] is not groups[0]
        assert groups[0].constraint is srcs[0]
        assert groups[3].constraint is srcs[1]
        for d in demands:
            assert live_rate(d) == pytest.approx(100.0 / 3)

    def test_region_closed_after_expanding_forms_a_group(self):
        """y seeds alone and squeezes s (bottlenecked at b) on c; the
        certificate pulls s in, the region closes, and c, carrying only
        demands frozen there, becomes a group."""
        sim = Simulator()
        q = FairQueue(sim)
        c = q.constraint("c", 100.0)
        b = q.constraint("b", 70.0)
        s = q.submit(1e6, [c, b])
        sim.run(until=1.0)
        assert s._bneck is b
        expansions = q.region_expansions
        y = q.submit(1e6, [c])
        sim.run(until=1.0)
        assert q.region_expansions == expansions + 1
        assert q.uniform_groups == 1
        assert s._group is y._group is not None
        assert s._group.constraint is c
        want = reference_max_min([[0, 1], [0]], [100.0, 70.0])
        assert [live_rate(s), live_rate(y)] == pytest.approx(want, rel=1e-9)

    def test_starved_outside_sharer_is_rerated(self):
        """s, bottlenecked at b, is starved; an arrival on c dirties c
        only.  s is outside the seeded region, but as a suspect it fails
        the certificate, joins, and is rated positive in the same pass."""
        sim = Simulator()
        q = FairQueue(sim)
        c = q.constraint("c", 100.0)
        b = q.constraint("b", 30.0)
        s = q.submit(1e6, [c, b])
        x = q.submit(1e6, [c])
        sim.run(until=1.0)
        assert (s._bneck, x._bneck) == (b, c)
        s.rate = 0.0
        passes, expansions = q.rebalances, q.region_expansions
        y = q.submit(1e6, [c])
        sim.run(until=1.0)
        assert q.rebalances == passes + 1
        assert q.region_expansions == expansions + 1
        want = reference_max_min([[0, 1], [0], [0]], [100.0, 30.0])
        assert [s.rate, x.rate, y.rate] == pytest.approx(want, rel=1e-9)

    def test_non_positive_level_joins_each_sharer_once(self, monkeypatch):
        """c and d are saturated by demands bottlenecked elsewhere, so y's
        level is 0: every outside sharer on c and d joins the region, and
        x1, on both, joins once (counted twice it would be frozen twice)."""
        fills = []
        fill = FairQueue._fill

        def spy(self, count, links, lists, fid, rescue):
            distinct = {id(d) for lst in lists for d in lst}
            fills.append((count, len(distinct)))
            return fill(self, count, links, lists, fid, rescue)

        sim = Simulator()
        q = FairQueue(sim)
        caps = [100.0, 100.0, 50.0, 50.0, 50.0]
        c, d, b1, b2, b3 = (q.constraint(f"c{i}", cap)
                            for i, cap in enumerate(caps))
        x1 = q.submit(1e6, [c, d, b1])
        x2 = q.submit(1e6, [b2, c])
        x3 = q.submit(1e6, [b3, d])
        sim.run(until=1.0)
        assert (x1._bneck, x2._bneck, x3._bneck) == (b1, b2, b3)
        monkeypatch.setattr(FairQueue, "_fill", spy)
        expansions = q.region_expansions
        y = q.submit(1e6, [c, d])
        sim.run(until=1.0)
        assert q.region_expansions == expansions + 1
        assert fills == [(1, 1), (4, 4)]
        want = reference_max_min([[0, 1, 2], [3, 0], [4, 1], [0, 1]], caps)
        have = [live_rate(e) for e in (x1, x2, x3, y)]
        assert have == pytest.approx(want, rel=1e-9)


class TestFillRescue:
    """The filling kernel's degenerate-residual rescue, driven directly:
    scratch as a pass leaves it after float underflow — no residual
    left on a link that still has unfrozen demands."""

    def _degenerate(self):
        sim = Simulator()
        q = FairQueue(sim)
        link = q.constraint("link", 100.0)
        frozen, a, b = (q.submit(1e6, [link]) for _ in range(3))
        q._fill_id += 1
        fid = q._fill_id
        frozen._fill_mark = fid  # frozen earlier in this fill at 40 B/s
        frozen.rate = 40.0
        link._residual = 0.0
        link._ucount = 2
        return q, link, (a, b), fid

    def test_component_fill_rescues_the_level(self):
        q, link, (a, b), fid = self._degenerate()
        bnecks = q._fill(2, [link], [link.demands], fid, True)
        # The exactly recomputed residual (100 - 40) is split evenly.
        assert bnecks == [(link, pytest.approx(30.0), 1e6)]
        assert a.rate == b.rate == pytest.approx(30.0)
        assert a._bneck is link and b._bneck is link
        assert q.starvation_rescues == 2

    def test_region_fill_declines_without_rescue(self):
        q, link, _, fid = self._degenerate()
        assert q._fill(2, [link], [link.demands], fid, False) is None
        assert q.starvation_rescues == 0


class TestSubComponentFastPaths:
    """Arrival re-rating without a filling pass where exact; departures
    re-rate the survivors exactly."""

    def test_arrival_rated_from_residuals_without_a_pass(self):
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 100.0)
        c2 = q.constraint("c2", 30.0)
        a = q.submit(1e6, [c1, c2])   # alone: min residual = 30
        b = q.submit(1e6, [c1])       # residual 70 >= a's 30: exact
        sim.run(until=0.0)
        assert q.arrival_fast_paths == 2
        assert q.rebalances == 0
        assert a.rate == pytest.approx(30.0)
        assert b.rate == pytest.approx(70.0)

    def test_arrival_that_must_squeeze_incumbents_takes_a_pass(self):
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 100.0)
        a = q.submit(1e6, [c1])       # fast path: 100 B/s
        b = q.submit(1e6, [c1])       # saturated: must halve a
        sim.run(until=0.0)
        assert q.arrival_fast_paths == 1
        assert q.rebalances == 1
        assert a.rate == pytest.approx(50.0)
        assert b.rate == pytest.approx(50.0)

    def test_departure_freeing_nobody_keeps_rates(self):
        """b leaves c1 saturated, but a is pinned by c2 and was strictly
        slower: after the abort a keeps its max-min rate and finishes
        when it would have."""
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 100.0)
        c2 = q.constraint("c2", 30.0)
        a = q.submit(1e6, [c1, c2])
        b = q.submit(1e6, [c1])
        sim.run(until=1.0)
        q.abort(b, RuntimeError("cancelled"))
        sim.run(until=1.0)
        want = reference_max_min([[0, 1]], [100.0, 30.0])
        assert_tied(live_rate(a), want[0])
        sim.run(until=a.done)
        assert_tied(sim.now, 1e6 / want[0])

    def test_departure_of_the_binding_demand_takes_a_pass(self):
        """a's exit unsaturates c2 and frees c1 capacity b can claim."""
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 100.0)
        c2 = q.constraint("c2", 30.0)
        a = q.submit(1e6, [c1, c2])
        b = q.submit(1e6, [c1])
        sim.run(until=1.0)
        q.abort(a, RuntimeError("cancelled"))
        sim.run(until=1.0)
        assert q.departure_fast_paths == 0
        assert b.rate == pytest.approx(100.0)

    def test_witness_grouped_slack_bound_sees_fanout_sources(self):
        """Many flows fanning out of a few tight source disks cannot fill
        a big WAN leg: the witness-grouped bound (sum of *distinct*
        witness capacities) keeps it provably slack where the per-demand
        sum would have coupled both sides into one component."""
        sim = Simulator()
        q = FairQueue(sim)
        wan = q.constraint("wan", 500.0)
        srcs = [q.constraint(f"src{i}", 100.0) for i in range(3)]
        # 9 flows, 3 per source: per-demand bound 9 x 100 > 500, but the
        # witness-grouped bound is 3 x 100 = 300 < 500 -> wan stays slack.
        flows = [q.submit(1e6, [srcs[i % 3], wan]) for i in range(9)]
        sim.run(until=0.0)
        assert wan.slack
        for f in flows:
            have = f.rate if f._group is None else f._group.share()
            assert have == pytest.approx(100.0 / 3)
        # No pass ever walked through the wan: each source formed its own
        # single-bottleneck component (or group) independently.
        assert q.cross_partition_passes == 0


def settle_generic(sim, q):
    """Flush pending passes, then materialise any uniform group so every
    live demand is a plain, hand-editable generic demand."""
    sim.run(until=sim.now)
    for d in list(q._live):
        if d._group is not None:
            d._group.dissolve()


class TestFastPathTieTolerance:
    """Demands frozen at one bottleneck may carry rates that differ in
    the last bit; the departure and completion fast paths must treat such
    a survivor as tied with the leaver, not as strictly slower."""

    def test_departure_with_one_ulp_slower_survivors_takes_a_pass(self):
        sim = Simulator()
        q = FairQueue(sim)
        c = q.constraint("c", 300.0)
        a, b, leaver = (q.submit(1e6, [c]) for _ in range(3))
        settle_generic(sim, q)
        slower = math.nextafter(100.0, 0.0)
        a.rate = b.rate = slower
        leaver.rate = 100.0
        passes = q.rebalances
        q.abort(leaver, RuntimeError("preempted"))
        leaver.done.defused()
        sim.run(until=sim.now)
        assert q.departure_fast_paths == 0
        assert q.rebalances > passes
        want = reference_max_min([[0], [0]], [300.0])
        for d, r in zip((a, b), want):
            assert live_rate(d) == pytest.approx(r, rel=1e-9)

    def test_timer_completion_with_one_ulp_slower_survivors_takes_a_pass(self):
        sim = Simulator()
        q = FairQueue(sim)
        own = q.constraint("own", 1000.0)
        shared = q.constraint("shared", 300.0)
        leaver = q.submit(1e6, [own, shared])
        a, b = (q.submit(1e6, [shared]) for _ in range(2))
        settle_generic(sim, q)
        a.rate = b.rate = math.nextafter(100.0, 0.0)
        leaver.rate = 100.0
        leaver.remaining = 0.0  # drained: the next timer completes it
        q._arm_bottleneck_timer(own, 0.0)
        sim.run(until=sim.now)
        assert leaver.done.triggered
        assert q.completion_fast_paths == 0
        want = reference_max_min([[0], [0]], [300.0])
        for d, r in zip((a, b), want):
            assert live_rate(d) == pytest.approx(r, rel=1e-9)


class TestEarlyTimerReaim:
    def test_slowed_demand_timer_reaims_without_a_pass(self):
        """A alone on c1 arms c1's timer for t=10; B arriving at t=2
        (capped at 20 by c2) slows A to 80, due at 12.  The old timer
        fires at 10 on a settled queue: it is re-aimed at 12 with no
        pass, and A still finishes at exactly 12."""
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 100.0)
        c2 = q.constraint("c2", 20.0)
        a = q.submit(1000.0, [c1])
        assert q.arrival_fast_paths == 1 and c1._timer_at == 10.0
        sim.run(until=2.0)
        q.submit(1000.0, [c1, c2])
        sim.run(until=sim.now)
        assert a.rate == 80.0 and c1._timer_at == 10.0
        passes = q.rebalances
        sim.run(until=11.0)
        assert q.timer_reaims == 1
        assert q.rebalances == passes
        assert c1._timer_at == 12.0
        sim.run(until=a.done)
        assert sim.now == 12.0

    def test_drained_demand_still_takes_the_pass(self):
        """A timer whose recorded demand has drained is not early: the
        pass completes it and re-rates its sharer."""
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 100.0)
        c2 = q.constraint("c2", 20.0)
        a = q.submit(1000.0, [c1])
        sim.run(until=2.0)
        b = q.submit(1000.0, [c1, c2])
        sim.run(until=sim.now)
        passes = q.rebalances
        sim.run(until=a.done)
        assert sim.now == 12.0
        assert q.timer_reaims == 1  # the early firing at t=10 only
        assert q.rebalances == passes + 1
        sim.run(until=b.done)
        assert sim.now == 52.0  # 1000 B at c2's 20 B/s from t=2


class TestMultiBottleneckExactTimestamps:
    def test_two_bottlenecks_complete_at_exact_times(self):
        """A(c1) vs B(c1,c2): c2 caps B at 30, A mops up c1's rest."""
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 100.0)
        c2 = q.constraint("c2", 30.0)
        a = q.submit(700.0, [c1])
        b = q.submit(300.0, [c1, c2])
        sim.run(until=a.done)
        assert sim.now == pytest.approx(10.0)  # 700 / 70
        sim.run(until=b.done)
        assert sim.now == pytest.approx(10.0)  # 300 / 30

    def test_freed_capacity_speeds_survivor_at_exact_instant(self):
        """Multi-bottleneck handoff: when A drains, B is still c2-capped,
        but C (c1-only) absorbs the freed bandwidth."""
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 100.0)
        c2 = q.constraint("c2", 20.0)
        a = q.submit(200.0, [c1])       # 40 B/s alongside c
        b = q.submit(100.0, [c1, c2])   # pinned to 20 B/s by c2
        c = q.submit(400.0, [c1])       # 40 B/s, then 80 B/s after a
        sim.run(until=a.done)
        assert sim.now == pytest.approx(5.0)    # 200 / 40
        sim.run(until=b.done)
        assert sim.now == pytest.approx(5.0)    # 100 / 20
        sim.run(until=c.done)
        # c: 5 s at 40 B/s (200 B left), then 200 B at 80 B/s (c2 still
        # holds b? no - b finished at 5.0 too) ... after t=5, c is alone:
        # 200 B at 100 B/s -> 7.0 s total.
        assert sim.now == pytest.approx(7.0)

    def test_three_tier_progressive_fill_timestamps(self):
        sim = Simulator()
        q = FairQueue(sim)
        c1 = q.constraint("c1", 90.0)
        c2 = q.constraint("c2", 10.0)
        c3 = q.constraint("c3", 25.0)
        slow = q.submit(100.0, [c1, c2])    # 10 B/s (c2)
        mid = q.submit(250.0, [c1, c3])     # 25 B/s (c3)
        fast = q.submit(550.0, [c1])        # 90 - 10 - 25 = 55 B/s
        sim.run(until=slow.done)
        assert sim.now == pytest.approx(10.0)
        sim.run(until=mid.done)
        assert sim.now == pytest.approx(10.0)
        sim.run(until=fast.done)
        assert sim.now == pytest.approx(10.0)


class TestUniformGroups:
    def test_flood_forms_group_and_completes_exactly(self):
        """n demands through one bottleneck with private, no-tighter side
        constraints: one virtual clock, exact staggered completions."""
        sim = Simulator()
        q = FairQueue(sim)
        src = q.constraint("src", 100.0)
        privates = [q.constraint(f"p{i}", 100.0) for i in range(4)]
        sizes = [100.0, 200.0, 300.0, 400.0]
        demands = [q.submit(s, [src, privates[i]])
                   for i, s in enumerate(sizes)]
        sim.run(until=0.0)
        assert q.uniform_groups == 1
        assert all(d._group is not None for d in demands)
        done_at = []
        for d in demands:
            sim.run(until=d.done)
            done_at.append(sim.now)
        # 4 flows at 25 each: first done at t=4 (100B); then 3 at 33.3:
        # next at 4 + 100/ (100/3) = 7; then 7 + 100/50 = 9; then 9 + 100/100 = 10.
        assert done_at == pytest.approx([4.0, 7.0, 9.0, 10.0])
        # The whole cascade ran on the group clock: one filling pass.
        assert q.rebalances == 1
        assert q.uniform_completions == 4

    def test_arrival_joins_group_without_a_pass(self):
        sim = Simulator()
        q = FairQueue(sim)
        src = q.constraint("src", 100.0)
        p = [q.constraint(f"p{i}", 100.0) for i in range(3)]
        a = q.submit(1000.0, [src, p[0]])
        b = q.submit(1000.0, [src, p[1]])
        sim.run(until=2.0)
        assert a._group is not None
        passes_before = q.rebalances
        c = q.submit(400.0, [src, p[2]])
        sim.run(until=2.0)
        # The newcomer joined the live group in place: no dissolve, no
        # filling pass, share re-split three ways on the virtual clock.
        assert c._group is not None and c._group is a._group
        assert q.rebalances == passes_before
        assert q.uniform_joins == 1
        assert a._group.share() == pytest.approx(100.0 / 3)
        # a and b drained 100 B each before c arrived.
        assert (a.remaining_now(sim.now) + b.remaining_now(sim.now)
                == pytest.approx(1800.0))

    def test_single_constraint_ops_use_virtual_clock(self):
        """Disk-style ops (one shared constraint) always group."""
        sim = Simulator()
        q = FairQueue(sim)
        ch = q.constraint("disk", 50.0)
        evs = [q.request(100.0, [ch]) for _ in range(5)]
        sim.run(until=gather_safe(sim, evs))
        assert sim.now == pytest.approx(10.0)  # 500 B / 50 B/s
        assert q.rebalances == 1  # all completions via the clock


class TestSlackShortcut:
    def test_undersubscribed_shared_constraint_does_not_couple(self):
        """Two demands share a big constraint that cannot bind: passes must
        not chain their components through it."""
        sim = Simulator()
        q = FairQueue(sim)
        wan = q.constraint("wan", 1000.0)   # 2 x 100 << 1000: slack
        n1 = q.constraint("n1", 100.0)
        n2 = q.constraint("n2", 100.0)
        a = q.submit(500.0, [n1, wan])
        b = q.submit(1000.0, [n2, wan])
        sim.run(until=0.0)
        # Both arrivals are rated straight from local residuals (the
        # shared wan is provably slack and never saturates): no filling
        # pass at all, and certainly no coupled one.
        assert q.rebalances == 0
        assert q.arrival_fast_paths == 2
        assert a.rate == pytest.approx(100.0)
        assert b.rate == pytest.approx(100.0)
        sim.run(until=a.done)
        assert sim.now == pytest.approx(5.0)
        sim.run(until=b.done)
        assert sim.now == pytest.approx(10.0)

    def test_saturated_shared_constraint_still_couples(self):
        sim = Simulator()
        q = FairQueue(sim)
        wan = q.constraint("wan", 150.0)    # 2 x 100 > 150: can bind
        n1 = q.constraint("n1", 100.0)
        n2 = q.constraint("n2", 100.0)
        a = q.submit(750.0, [n1, wan])
        b = q.submit(750.0, [n2, wan])
        done = gather_safe(sim, [a.done, b.done])
        sim.run(until=done)
        # Max-min: 75 B/s each through the shared wan.
        assert sim.now == pytest.approx(10.0)

    def test_slack_flips_to_binding_when_load_grows(self):
        sim = Simulator()
        q = FairQueue(sim)
        wan = q.constraint("wan", 150.0)
        nics = [q.constraint(f"n{i}", 100.0) for i in range(3)]
        a = q.submit(1000.0, [nics[0], wan])   # alone: slack wan, 100 B/s
        sim.run(until=2.0)
        assert a.remaining_now(sim.now) == pytest.approx(800.0)
        b = q.submit(500.0, [nics[1], wan])
        c = q.submit(500.0, [nics[2], wan])
        sim.run(until=4.0)
        # 3 x 100 > 150: wan binds at 50 B/s each.
        assert a.remaining_now(sim.now) == pytest.approx(800.0 - 2 * 50.0)
        assert b.remaining_now(sim.now) == pytest.approx(500.0 - 2 * 50.0)
        assert c.remaining_now(sim.now) == pytest.approx(500.0 - 2 * 50.0)


def partition_decoupled(queue, partition):
    """True while no live demand bridges ``partition`` to anything outside
    it (another partition, or an unpartitioned constraint): churn inside
    the partition then provably cannot re-rate any other demand."""
    for d in queue._live:
        parts = {c.partition for c in d.constraints}
        if partition in parts and len(parts) > 1:
            return False
    return True


class TestPartitionDecoupling:
    def test_intra_partition_churn_is_decoupled_while_wan_idle(self):
        sim = Simulator()
        q = FairQueue(sim)
        a1 = q.constraint("a1", 100.0, partition="siteA")
        a2 = q.constraint("a2", 100.0, partition="siteA")
        b1 = q.constraint("b1", 100.0, partition="siteB")
        q.submit(1000.0, [a1, a2])
        q.submit(1000.0, [b1])
        sim.run(until=0.0)
        assert partition_decoupled(q, "siteA")
        assert partition_decoupled(q, "siteB")
        assert q.cross_partition_passes == 0

    def test_cross_site_demand_bridges_partitions(self):
        sim = Simulator()
        q = FairQueue(sim)
        a1 = q.constraint("a1", 100.0, partition="siteA")
        wan_a = q.constraint("wanA", 120.0, partition="siteA")
        wan_b = q.constraint("wanB", 120.0, partition="siteB")
        b1 = q.constraint("b1", 100.0, partition="siteB")
        d = q.submit(1000.0, [a1, wan_a, wan_b, b1])
        sim.run(until=0.0)
        assert not partition_decoupled(q, "siteA")
        assert not partition_decoupled(q, "siteB")
        sim.run(until=d.done)
        # Bridge gone: both sites decoupled again.
        assert partition_decoupled(q, "siteA")
        assert partition_decoupled(q, "siteB")


class TestGroupCoexistence:
    """Uniform groups under member aborts (the group dissolves and the
    pass re-rates the survivors) and foreign traffic on their span (the
    pinned-fill path)."""

    def test_member_abort_rerates_survivors_exactly(self):
        """Aborting one member re-splits the share among the survivors,
        who then complete at the exact reference times."""
        sim = Simulator()
        q = FairQueue(sim)
        src = q.constraint("src", 100.0)
        privates = [q.constraint(f"p{i}", 100.0) for i in range(4)]
        sizes = [100.0, 200.0, 300.0, 400.0]
        demands = [q.submit(s, [src, privates[i]])
                   for i, s in enumerate(sizes)]
        for d in demands:
            d.done.defused()
        sim.run(until=2.0)
        assert demands[0]._group is not None
        q.abort(demands[0], RuntimeError("preempted"))
        sim.run(until=2.0)
        want = reference_max_min([[0, i + 1] for i in range(3)],
                                 [100.0] * 4)
        for d, r in zip(demands[1:], want):
            assert_tied(live_rate(d), r)
        # At t=2 each had drained 50 B; survivors now run the cascade
        # 150/33.3 -> 6.5, then 100/50 -> 8.5, then 100/100 -> 9.5.
        for d, t in zip(demands[1:], (6.5, 8.5, 9.5)):
            sim.run(until=d.done)
            assert_tied(sim.now, t)

    def test_foreign_flow_coexists_with_pinned_group(self):
        """A foreign demand sharing a span constraint is rated into the
        residual capacity; the group neither dissolves nor re-rates.  The
        re-rating is one region pass that pins the group."""
        sim = Simulator()
        q = FairQueue(sim)
        src = q.constraint("src", 100.0)
        site = q.constraint("site", 250.0)
        privates = [q.constraint(f"p{i}", 100.0) for i in range(4)]
        members = [q.submit(1000.0, [src, site, privates[i]])
                   for i in range(4)]
        sim.run(until=1.0)
        group = members[0]._group
        assert group is not None
        passes = q.rebalances
        fp = q.constraint("fp", 300.0)
        foreign = q.submit(900.0, [site, fp])
        sim.run(until=1.0)
        # The group survived with the members clock-pinned at 25 B/s;
        # the foreign demand got the site residual 250 - 4*25 = 150.
        assert members[0]._group is group
        assert q.uniform_pins == 1
        assert q.rebalances == passes + 1
        assert group._foreign == {site: pytest.approx(150.0)}
        want = reference_max_min([[0, 1, 3 + i] for i in range(4)]
                                 + [[1, 2]], [100.0, 250.0, 300.0]
                                 + [100.0] * 4)
        have = [live_rate(d) for d in members + [foreign]]
        assert have == pytest.approx(want, rel=1e-9)
        sim.run(until=foreign.done)
        assert sim.now == pytest.approx(1.0 + 900.0 / 150.0)
        for m in members:
            sim.run(until=m.done)
        assert sim.now == pytest.approx(40.0)  # 4000 B / 100 B/s, unperturbed

    def test_arrival_joins_contested_group(self):
        """try_join admits a newcomer while foreign traffic shares the
        span, provided members and the foreign allocation still fit."""
        sim = Simulator()
        q = FairQueue(sim)
        src = q.constraint("src", 100.0)
        site = q.constraint("site", 250.0)
        privates = [q.constraint(f"p{i}", 100.0) for i in range(4)]
        members = [q.submit(1000.0, [src, site, privates[i]])
                   for i in range(4)]
        sim.run(until=1.0)
        group = members[0]._group
        fp = q.constraint("fp", 300.0)
        foreign = q.submit(900.0, [site, fp])
        sim.run(until=2.0)
        joins_before = q.uniform_joins
        p4 = q.constraint("p4", 100.0)
        late = q.submit(1000.0, [src, site, p4])
        sim.run(until=2.0)
        assert late._group is group
        assert q.uniform_joins == joins_before + 1
        assert group.share() == pytest.approx(20.0)
        # The foreign flow still fits in the residual (250 - 5*20 = 150).
        assert foreign.rate == pytest.approx(150.0)

    def test_foreign_squeeze_dissolves_group(self):
        """When joint max-min would push members below the clock share,
        the pin is not exact: the pass dissolves the group and the whole
        component is filled generically."""
        sim = Simulator()
        q = FairQueue(sim)
        src = q.constraint("src", 100.0)
        site = q.constraint("site", 120.0)
        privates = [q.constraint(f"p{i}", 100.0) for i in range(4)]
        members = [q.submit(1000.0, [src, site, privates[i]])
                   for i in range(4)]
        sim.run(until=1.0)
        group = members[0]._group
        assert group is not None
        fp = q.constraint("fp", 300.0)
        foreign = q.submit(900.0, [site, fp])
        sim.run(until=1.0)
        # site fair share 120/5 = 24 < the clock share 25: everyone on
        # the site link equalizes at 24 B/s.  The src-bottlenecked group
        # had to go (the refill may then group everyone on the site).
        assert members[0]._group is not group
        for d in members + [foreign]:
            assert d.rate == pytest.approx(24.0)


class TestLifecycle:
    def test_zero_byte_demand_completes_immediately(self):
        sim = Simulator()
        q = FairQueue(sim)
        c = q.constraint("c", 10.0)
        d = q.submit(0.0, [c])
        assert d.done.triggered
        assert q.active_demands == 0

    def test_unconstrained_demand_completes_immediately(self):
        sim = Simulator()
        q = FairQueue(sim)
        d = q.submit(10.0, [])
        assert d.done.triggered and d.done.value is None
        assert q.active_demands == 0

    @pytest.mark.parametrize("caps,tight,runner_up", [
        ((5.0, 3.0, 3.0), 1, 2),
        ((3.0, 5.0, 3.0), 0, 2),
        ((3.0, 3.0, 5.0), 0, 1),
        ((4.0, 3.0, 3.0, 3.0), 1, 2),
        ((7.0, 7.0), 0, 1),
    ])
    def test_witness_is_first_tightest_other_constraint(self, caps, tight,
                                                        runner_up):
        sim = Simulator()
        q = FairQueue(sim)
        cs = [q.constraint(f"c{i}", cap) for i, cap in enumerate(caps)]
        d = q.submit(1.0, cs)
        assert d._witness == tuple(cs[runner_up] if i == tight else cs[tight]
                                   for i in range(len(cs)))

    def test_negative_size_rejected(self):
        sim = Simulator()
        q = FairQueue(sim)
        c = q.constraint("c", 10.0)
        with pytest.raises(ValueError):
            q.submit(-1.0, [c])

    def test_abort_constraint_fails_all_and_rerates_survivors(self):
        sim = Simulator()
        q = FairQueue(sim)
        shared = q.constraint("shared", 100.0)
        other = q.constraint("other", 100.0)
        doomed = q.submit(1000.0, [shared, other])
        doomed.done.defused()
        survivor = q.submit(500.0, [shared])
        sim.run(until=2.0)
        assert q.abort_constraint(other, RuntimeError("wiped")) == 1
        sim.run(until=survivor.done)
        assert not doomed.done.ok
        # survivor: 2 s at 50 B/s, then 400 B at 100 B/s.
        assert sim.now == pytest.approx(6.0)

    def test_work_conservation_random_sizes(self):
        sim = Simulator()
        q = FairQueue(sim)
        ch = q.constraint("ch", 100.0)
        sizes = [37.0, 240.0, 101.5, 999.0, 5.0]
        evs = [q.request(s, [ch]) for s in sizes]
        sim.run(until=gather_safe(sim, evs))
        assert sim.now == pytest.approx(sum(sizes) / 100.0)
