import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from onebitnet import (EmpiricalCdf, ExponentialModel, GaussianModel,
                       SimConfig, build_uniform_matrix, ks_distance, make_step,
                       neighbor_sets_from_edges, reaction_time, run)
from onebitnet import simulate
from onebitnet.models import normal_cdf
from onebitnet.simulate import (ONE_BIT_X, QUANTIZED_STATE, SCHEMES,
                                UNQUANTIZED, _trial_rng, draw_statistics,
                                to_statistics)
from onebitnet.validation import (explicit_one_bit_state, iterate_scheme,
                                  unquantized_matrix_state)
from tests.conftest import make_network


class TestSimConfig:
    def test_schedule_validation(self, gauss1, net_a25):
        with pytest.raises(ValueError, match="start at step 1"):
            SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=10,
                      trials=1, schedule=((2, 0),))
        with pytest.raises(ValueError, match="increasing"):
            SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=10,
                      trials=1, schedule=((1, 0), (1, 1)))
        # (2.7, True) was truncated to (2, 1)
        for bad, message in ((((1, 0), (2.7, 1)), "start must be a whole number"),
                             (((1, 0), (True, 1)), "start must be a whole number"),
                             (((1, 0), (3, True)), "hypotheses must be 0 or 1"),
                             (((1, 0), (3, 0.5)), "hypotheses must be 0 or 1")):
            with pytest.raises(ValueError, match=message):
                SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=10,
                          trials=1, schedule=bad)
        with pytest.raises(ValueError, match="scheme"):
            SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=10,
                      trials=1, scheme="bogus")
        with pytest.raises(ValueError, match="seed"):
            SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=10,
                      trials=1, seed=-1)

    @pytest.mark.parametrize("field", ["n_iters", "trials", "seed"])
    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), "2.5", None])
    def test_fractional_or_nonfinite_sizes_rejected(self, gauss1, net_a25,
                                                   field, bad):
        sizes = {"n_iters": 10, "trials": 4, "seed": 0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be a whole number"):
            SimConfig(network=net_a25, model=gauss1, mu=0.1, **sizes)

    @pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7), 7.0,
                                       np.float64(7.0)])
    def test_integral_sizes_stored_as_int(self, gauss1, net_a25, value):
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=value,
                        trials=value, seed=value, schedule=((1, 0), (value, 1)))
        assert all(type(v) is int and v == 7
                   for v in (cfg.n_iters, cfg.trials, cfg.seed, cfg.schedule[1][0]))
        assert all(type(v) is int for segment in cfg.schedule for v in segment)

    def test_segments(self, gauss1, net_a25):
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=8,
                        trials=1, schedule=((1, 0), (4, 1), (7, 0)))
        assert cfg.segments() == [(0, 3, 0), (3, 6, 1), (6, 8, 0)]
        assert cfg.segments(2, 7) == [(0, 1, 0), (1, 4, 1), (4, 5, 0)]

    def test_segments_match_per_step_hypotheses(self, gauss1, net_a25):
        # random schedules, with repeated hypotheses and starts past n_iters,
        # against the runs of a per-step hypothesis array, over every split
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            starts = np.sort(rng.choice(np.arange(2, 16), rng.integers(0, 6),
                                        replace=False))
            schedule = ((1, int(rng.integers(2))),
                        *((int(s), int(rng.integers(2))) for s in starts))
            cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=n,
                            trials=1, schedule=schedule)
            per_step = np.empty(n + 15, dtype=int)
            for start, h in schedule:
                per_step[start - 1:] = h
            per_step = per_step[:n]
            for c0 in range(n + 1):
                for c1 in range(c0, n + 1):
                    part = per_step[c0:c1]
                    runs, start = [], 0
                    for i in range(1, part.size + 1):
                        if i == part.size or part[i] != part[start]:
                            runs.append((start, i, int(part[start])))
                            start = i
                    assert cfg.segments(c0, c1) == runs
            assert cfg.segments() == cfg.segments(0, n)


class TestSingleSteps:
    def test_unknown_scheme_rejected(self, gauss1, net_a25):
        with pytest.raises(ValueError, match="scheme"):
            make_step(net_a25, gauss1, 0.1, "bogus")

    def test_self_reliant_network_is_scalar_smoothing(self, gauss1):
        net = build_uniform_matrix([frozenset({0}), frozenset({1})], 1.0)
        y = np.array([0.4, -0.2])
        x = np.array([1.0, 0.5])
        got = make_step(net, gauss1, 0.1, ONE_BIT_X)(y, x[None, None])[0, 0]
        np.testing.assert_allclose(got, (1 - 0.1) * y + 0.1 * x, atol=1e-15)
        got_u = make_step(net, gauss1, 0.1, UNQUANTIZED)(y, x[None, None])[0, 0]
        np.testing.assert_allclose(got_u, got, atol=1e-15)

    def test_hand_evaluated_single_step(self, gauss1):
        # node 9 (single neighbor 7), a = 0.25, mu = 0.1, from rest:
        # v_9 = 0.1 * 0.5; neighbor message E0 x = -1 with weight 0.75
        net = make_network(0.25)
        y = np.zeros(10)
        x = np.zeros(10)
        x[9] = 0.5
        x[7] = -0.2
        got = make_step(net, gauss1, 0.1, ONE_BIT_X)(y, x[None, None])[0, 0]
        np.testing.assert_allclose(got[9], 0.25 * 0.05 + 0.75 * (-1.0),
                                   atol=1e-15)
        assert got[9] == pytest.approx(-0.7375)

    def test_quantized_state_message_levels(self, gauss1):
        net = make_network(0.25)
        y = np.zeros(10)
        y[7] = 0.3 / 0.1  # v_7 = y + mu (x - y) = 0.3 when x = ... pick x directly
        x = np.zeros(10)
        got = make_step(net, gauss1, 0.1, QUANTIZED_STATE)(np.zeros(10),
                                                          np.full((1, 1, 10), 0.3))[0, 0]
        # all intermediate states are 0.03 >= 0, so every message is E1 x = 1
        expected_9 = 0.25 * (0.1 * 0.3) + 0.75 * 1.0
        np.testing.assert_allclose(got[9], expected_9, atol=1e-15)


def reference_step(network, model, mu, scheme):
    """The update as one expression per scheme, allocating freely."""
    a = np.diag(network.A)
    c_t = (network.A - np.diag(a)).T
    e0, e1 = model.message_values()

    def step(y, x):
        v = y + mu * (x - y)
        if scheme == UNQUANTIZED:
            return v @ network.A.T
        m = x if scheme == ONE_BIT_X else v
        return a * (y + mu * (x - y)) + np.where(m >= 0, e1, e0) @ c_t

    return step


class TestKernel:
    """make_step's tile kernel computes the reference expression step by
    step, bit for bit."""

    @pytest.mark.parametrize("scheme", [ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED])
    @pytest.mark.parametrize("model", [GaussianModel(1.0), ExponentialModel(5.0)],
                             ids=["gaussian", "exponential"])
    def test_matches_reference_expression(self, model, scheme, net_a25):
        step = make_step(net_a25, model, 0.1, scheme)
        ref = reference_step(net_a25, model, 0.1, scheme)
        rng = np.random.default_rng(8)
        # tiles of 1, 2 and 7 trial rows and a one-step tile; the longer
        # ones switch from h = 0 to h = 1 after their third step
        for shape in ((6, 1, 10), (6, 2, 10), (6, 7, 10), (1, 7, 10)):
            switch = min(3, shape[0])
            x = np.concatenate([model.sample(0, rng, (switch, *shape[1:])),
                                model.sample(1, rng, (shape[0] - switch, *shape[1:]))])
            y = rng.normal(0.0, 1.0, shape[1:])
            # signed zeros and non-finite statistics in x; v = y + mu (x - y)
            # is exactly 0 where x and y are zeros of either sign
            x[0].flat[:5] = [0.0, -0.0, np.nan, np.inf, -np.inf]
            x[0][..., -3:] = [0.0, -0.0, -0.0]
            y[..., -3:] = [0.0, -0.0, 0.0]
            assert np.all((y + 0.1 * (x[0] - y))[..., -3:] == 0.0)
            for arr in (x, y):
                arr.setflags(write=False)
            with np.errstate(invalid="ignore"):  # inf * 0 in the full matrix
                got = step(y, x)
                want, state = [], y
                for xi in x:
                    state = ref(state, xi)
                    want.append(state)
            assert got.shape == x.shape
            np.testing.assert_array_equal(got.view(np.uint64),
                                          np.array(want).view(np.uint64))

    def test_writes_into_the_given_buffer(self, gauss1, net_a25):
        step = make_step(net_a25, gauss1, 0.1)
        x = gauss1.sample(1, np.random.default_rng(3), (4, 3, 10))
        out = np.empty_like(x)
        assert step(np.zeros(10), x, out) is out
        np.testing.assert_array_equal(out, step(np.zeros(10), x))
        for bad in (np.empty((4, 10, 3)), np.empty((4, 3, 9))):
            with pytest.raises(ValueError, match="out must be an array of shape"):
                step(np.zeros(10), x, bad)

    def test_only_three_dimensional_tiles(self, gauss1, net_a25):
        # a (trials, S) array would otherwise step as trials steps of one trial
        step = make_step(net_a25, gauss1, 0.1)
        x = gauss1.sample(1, np.random.default_rng(3), (4, 3, 10))
        for bad in (x[:, 0], x[0, 0], x[None]):
            with pytest.raises(ValueError, match=r"x must be a \(steps, rows, S\) tile"):
                step(np.zeros(10), bad)


class TestClosedFormOracles:
    def test_one_bit_and_unquantized_match_closed_forms(self):
        # randomized configurations, both oracles, 1e-12 agreement
        rng = np.random.default_rng(5)
        for _ in range(100):
            S = int(rng.integers(3, 8))
            ring = [(i, (i + 1) % S) for i in range(S)]
            extra = [(i, j) for i in range(S) for j in range(i + 1, S)
                     if rng.random() < 0.4]
            net = build_uniform_matrix(neighbor_sets_from_edges(S, ring + extra),
                                       rng.uniform(0.1, 0.95, S))
            mu = float(rng.uniform(0.02, 0.4))
            model = GaussianModel(float(rng.uniform(0.3, 3.0))) \
                if rng.random() < 0.5 else ExponentialModel(float(rng.uniform(1.5, 8.0)))
            n = int(rng.integers(1, 25))
            h = int(rng.integers(0, 2))
            x = model.sample(h, rng, (n, S))
            y0 = rng.normal(0.0, 1.0, S)
            y_end = iterate_scheme(net, model, mu, ONE_BIT_X, x, y0)
            for k in range(S):
                ref = explicit_one_bit_state(net, model, mu, k, x, y0)
                assert abs(y_end[k] - ref) < 1e-12
            y_end_u = iterate_scheme(net, model, mu, UNQUANTIZED, x, y0)
            ref_u = unquantized_matrix_state(net, mu, x, y0)
            np.testing.assert_allclose(y_end_u, ref_u, atol=1e-12)

    def test_run_matches_explicit_form_per_trial(self, gauss1):
        # run()'s loop against both closed forms, on each trial's Philox draws
        net = make_network(0.25)
        cfg = SimConfig(network=net, model=gauss1, mu=0.1, n_iters=12,
                        trials=5, seed=3)
        ens = run(cfg)
        ens_u = run(SimConfig(network=net, model=gauss1, mu=0.1, n_iters=12,
                              trials=5, seed=3, scheme=UNQUANTIZED))
        for t in range(cfg.trials):
            rng = _trial_rng(cfg.seed, t)
            x = draw_statistics(gauss1, cfg.segments(), rng,
                                np.empty((12, net.size)))
            for k in (0, 3, 9):
                ref = explicit_one_bit_state(net, gauss1, 0.1, k, x, np.zeros(10))
                assert abs(ens.terminal_states[t, k] - ref) < 1e-12
            ref_u = unquantized_matrix_state(net, 0.1, x, np.zeros(10))
            np.testing.assert_allclose(ens_u.terminal_states[t], ref_u, rtol=0,
                                       atol=1e-12)


THREE_SEGMENTS = ((1, 0), (9, 1), (20, 0))


def spy_on_standard(monkeypatch, spy):
    """Route both models' standard draws through ``spy(model, rng, out,
    standard)``, ``standard`` the model class's own method; run() makes
    one such call per trial and tile."""
    for cls in (GaussianModel, ExponentialModel):
        monkeypatch.setattr(cls, "standard", lambda self, rng, out, own=cls.standard:
                            spy(self, rng, out, own))


def no_draws(monkeypatch):
    """Make every standard draw raise TypeError."""
    for cls in (GaussianModel, ExponentialModel):
        monkeypatch.setattr(cls, "standard", None)


def never(n_blocks, work, sums):
    return False


@pytest.fixture
def serial(monkeypatch):
    """Keep every run() block in this process, where a spy on the standard
    draws or their map to statistics sees every call; the blocks are the
    ones the run's shape gives."""
    monkeypatch.setattr(simulate, "_use_child", never)


@pytest.fixture
def fork_counter(monkeypatch):
    """The list of run()'s forked children's pids, in a process that has
    two CPUs as far as run() can tell; run() decides whether to fork."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


@pytest.fixture
def forks(monkeypatch, fork_counter):
    """Split every run() of two or more blocks with a forked child, however
    small, and without changing its blocks; the list of the children's pids."""
    use_child = simulate._use_child
    monkeypatch.setattr(simulate, "_use_child", lambda n_blocks, work, sums:
                        use_child(n_blocks, simulate._SPLIT_WORK, sums))
    return fork_counter


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunDeterminism:
    def test_same_seed_bit_identical(self, expo5, net_a25):
        cfg = SimConfig(network=net_a25, model=expo5, mu=0.1, n_iters=30,
                        trials=64, seed=11)
        a = run(cfg, trajectory_nodes=(3,))
        b = run(cfg, trajectory_nodes=(3,))
        np.testing.assert_array_equal(a.terminal_states, b.terminal_states)
        np.testing.assert_array_equal(a.trajectories[3], b.trajectories[3])

    def test_chunking_does_not_change_trials(self, gauss1, expo5, net_a25):
        # three segments, both models; blocks of 1, 7 (a one-trial tail) and
        # the default, and a run of the first trial alone
        for model, scheme in ((gauss1, ONE_BIT_X), (expo5, ONE_BIT_X),
                              (expo5, UNQUANTIZED)):
            cfg = SimConfig(network=net_a25, model=model, mu=0.1, n_iters=20,
                            trials=50, scheme=scheme, schedule=THREE_SEGMENTS,
                            seed=7)
            a = run(cfg, trajectory_nodes=(3, 9))
            np.testing.assert_array_equal(
                run(replace(cfg, trials=1)).terminal_states, a.terminal_states[:1])
            for chunk in (1, 7):
                b = run(cfg, trajectory_nodes=(3, 9), chunk_trials=chunk)
                np.testing.assert_array_equal(a.terminal_states, b.terminal_states)
                # trajectories sum block by block: equal up to rounding
                for k in (3, 9):
                    np.testing.assert_allclose(a.trajectories[k], b.trajectories[k],
                                               rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h_steps", [[0, 0, 1, 1, 1, 0, 1, 1], [1], [0, 1]])
    def test_draws_match_step_by_step_segments(self, expo5, net_a25, h_steps):
        """The schedule's segments draw what a step-by-step scan draws."""
        h_steps = np.array(h_steps)
        schedule = tuple((s + 1, int(h)) for s, h in enumerate(h_steps))
        cfg = SimConfig(network=net_a25, model=expo5, mu=0.1, n_iters=h_steps.size,
                        trials=1, schedule=schedule)

        def scan(rng):
            x, start = np.empty((h_steps.size, 3)), 0
            while start < h_steps.size:
                end = start
                while end < h_steps.size and h_steps[end] == h_steps[start]:
                    end += 1
                x[start:end] = expo5.sample(int(h_steps[start]), rng, (end - start, 3))
                start = end
            return x

        np.testing.assert_array_equal(
            draw_statistics(expo5, cfg.segments(), np.random.default_rng(4),
                            np.empty((h_steps.size, 3))),
            scan(np.random.default_rng(4)))

    @pytest.mark.parametrize("chunk", [0, -1, 2.5, float("nan"), float("inf")])
    def test_nonpositive_chunk_rejected(self, gauss1, net_a25, chunk):
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=4)
        with pytest.raises(ValueError, match="chunk_trials"):
            run(cfg, chunk_trials=chunk)

    def test_integral_chunk_accepted(self, gauss1, net_a25):
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=7)
        ref = run(cfg, chunk_trials=3).terminal_states
        for chunk in (np.int64(3), 3.0):
            np.testing.assert_array_equal(run(cfg, chunk_trials=chunk).terminal_states,
                                          ref)

    def test_different_seeds_differ(self, gauss1, net_a25):
        cfg1 = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=10,
                         trials=8, seed=0)
        cfg2 = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=10,
                         trials=8, seed=1)
        assert not np.array_equal(run(cfg1).terminal_states,
                                  run(cfg2).terminal_states)


class TestBlocks:
    """run() reseeds one Philox per trial and draws step-major blocks."""

    @pytest.mark.parametrize("model", [GaussianModel(1.0), ExponentialModel(5.0)],
                             ids=["gaussian", "exponential"])
    def test_reseeded_draws_match_per_trial_generators(self, model, net_a25,
                                                       monkeypatch, serial):
        # after each trial the spy leaves half a 32-bit word and a partly
        # used Philox buffer behind; the next reseed must discard both
        cfg = SimConfig(network=net_a25, model=model, mu=0.1, n_iters=30,
                        trials=12, schedule=THREE_SEGMENTS, seed=5)
        drawn, states = [], []

        def spy(m, rng, out, standard):
            drawn.append(standard(m, rng, out).copy())
            rng.integers(0, 2 ** 32, 3, dtype=np.uint32)
            states.append(rng.bit_generator.state)
            return out

        with monkeypatch.context() as m:
            spy_on_standard(m, spy)
            ens = run(cfg, chunk_trials=5)
        assert all(st["has_uint32"] == 1 for st in states)
        assert any(0 < st["buffer_pos"] < 4 for st in states)
        # one draw per trial, of the whole (30, S) schedule, three segments
        # and all, which is the trial's own stream
        assert len(drawn) == cfg.trials
        segs = cfg.segments()
        assert len(segs) == 3
        for t, z in enumerate(drawn):
            ref = model.standard(_trial_rng(cfg.seed, t), np.empty((30, net_a25.size)))
            np.testing.assert_array_equal(z, ref)
        # and the tile's map makes of them the trial's statistics
        step = make_step(net_a25, model, 0.1)
        for t, z in enumerate(drawn):
            x = to_statistics(model, segs, z[:, None])
            np.testing.assert_array_equal(
                ens.terminal_states[t],
                step(np.zeros(10), np.concatenate([x, x], axis=1))[-1, 0])
            np.testing.assert_array_equal(
                x[:, 0], draw_statistics(model, segs, _trial_rng(cfg.seed, t),
                                         np.empty((30, net_a25.size))))

    def test_one_bit_generator_per_run(self, gauss1, net_a25, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        for trials in (1, 30, 300):
            built.clear()
            run(SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                          trials=trials, seed=2), chunk_trials=16)
            assert len(built) == 1

    @pytest.mark.parametrize("nodes", [(10,), (-1,), (3, 12)])
    def test_trajectory_node_out_of_range(self, gauss1, net_a25, nodes,
                                          monkeypatch):
        no_draws(monkeypatch)  # a draw raises TypeError
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=4)
        with pytest.raises(ValueError, match="trajectory_nodes"):
            run(cfg, trajectory_nodes=nodes)

    @pytest.mark.parametrize("nodes", [(2.5,), (3, np.nan), (np.inf,), ("x",)])
    def test_trajectory_node_not_integer(self, gauss1, net_a25, nodes,
                                         monkeypatch):
        # rejected before the first draw, which would raise TypeError here
        no_draws(monkeypatch)
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=4)
        with pytest.raises(ValueError, match="trajectory_nodes must be whole numbers"):
            run(cfg, trajectory_nodes=nodes)

    def test_integral_trajectory_node_read_as_int(self, gauss1, net_a25):
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=4, seed=3)
        a = run(cfg, trajectory_nodes=(3,))
        b = run(cfg, trajectory_nodes=(3.0,))
        assert list(b.trajectories) == [3]
        np.testing.assert_array_equal(a.trajectories[3], b.trajectories[3])

    def test_repeated_trajectory_node_counted_once(self, gauss1, net_a25):
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=4, seed=3, schedule=((1, 1),))
        a = run(cfg, trajectory_nodes=(3,))
        b = run(cfg, trajectory_nodes=(3, 9, 3.0))
        assert list(b.trajectories) == [3, 9]
        np.testing.assert_array_equal(a.trajectories[3], b.trajectories[3])

    @pytest.mark.parametrize("y0", [np.zeros(3), np.zeros((1, 10)),
                                    np.zeros((4, 10))])
    def test_y0_must_broadcast_to_nodes(self, gauss1, net_a25, y0, monkeypatch):
        no_draws(monkeypatch)  # a draw raises TypeError
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=4)
        with pytest.raises(ValueError, match="y0"):
            run(cfg, y0=y0)

    def test_scalar_y0_starts_every_node(self, gauss1, net_a25):
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=4)
        np.testing.assert_array_equal(run(cfg, y0=2.0).terminal_states,
                                      run(cfg, y0=np.full(10, 2.0)).terminal_states)


class TestTiles:
    """run() draws and steps (trials x steps x S) tiles within _TILE_BUDGET."""

    def test_tiles_match_single_tile_run(self, gauss1, expo5, net_a25,
                                         monkeypatch, serial):
        # 12 trials of 10 nodes under a 480-double budget step 4 at a time:
        # the switch into step 9 (index 8) falls on a tile edge, the one
        # into step 20 (index 19) inside a tile; blocks of 5 leave a 2-trial tail
        y0 = np.linspace(-1.0, 1.0, 10)
        cases = [(model, scheme, chunk) for model in (gauss1, expo5)
                 for scheme in (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED)
                 for chunk in (None, 5)]
        single = {}
        for model, scheme, chunk in cases:
            cfg = SimConfig(network=net_a25, model=model, mu=0.1, n_iters=30,
                            trials=12, scheme=scheme, schedule=THREE_SEGMENTS,
                            seed=9)
            single[model, scheme, chunk] = run(cfg, (3, 9), y0, chunk)
        draws, tiles = [], []

        def spy_draw(m, rng, out, standard):
            draws.append(out.shape)
            return standard(m, rng, out)

        def spy_map(m, segs, z):
            tiles.append((z.shape, segs))
            return to_statistics(m, segs, z)

        monkeypatch.setattr(simulate, "_TILE_BUDGET", 12 * 4 * 10)
        # the kernel steps each 4-step tile in slices of 3 steps and 1 step
        monkeypatch.setattr(simulate, "_KERNEL_BUDGET", 12 * 3 * 10)
        spy_on_standard(monkeypatch, spy_draw)
        monkeypatch.setattr(simulate, "to_statistics", spy_map)
        for model, scheme, chunk in cases:
            cfg = SimConfig(network=net_a25, model=model, mu=0.1, n_iters=30,
                            trials=12, scheme=scheme, schedule=THREE_SEGMENTS,
                            seed=9)
            tiled = run(cfg, (3, 9), y0, chunk)
            ref = single[model, scheme, chunk]
            np.testing.assert_array_equal(tiled.terminal_states, ref.terminal_states)
            for k in (3, 9):
                np.testing.assert_array_equal(tiled.trajectories[k],
                                              ref.trajectories[k])
        # the first case draws tile by tile, once per trial and tile, and
        # maps each tile of all 12 trials once, segment by segment
        assert draws[:96] == [(4, 10)] * 84 + [(2, 10)] * 12
        first = tiles[:8]
        assert [shape for shape, _ in first] == [(4, 12, 10)] * 7 + [(2, 12, 10)]
        assert first[2][1] == [(0, 4, 1)] and first[4][1] == [(0, 3, 1), (3, 4, 0)]

    @pytest.mark.parametrize("n_iters", [1, 100, 3000])
    def test_draws_stay_within_budget(self, gauss1, net_a25, n_iters,
                                      monkeypatch, serial):
        budget, kernel_budget = simulate._TILE_BUDGET, simulate._KERNEL_BUDGET
        drawn, seen, slices = [], [], []

        def spy_draw(m, rng, out, standard):
            drawn.append((out.shape, out.base.shape))
            return standard(m, rng, out)

        def spy(m, segs, z):
            seen.append((z.shape, z.base.shape))
            return to_statistics(m, segs, z)

        def spy_step(*args):
            kernel = make_step(*args)

            def step(y, x, out):
                slices.append((out.shape, out.base.size))
                return kernel(y, x, out)
            return step

        spy_on_standard(monkeypatch, spy_draw)
        monkeypatch.setattr(simulate, "to_statistics", spy)
        monkeypatch.setattr(simulate, "make_step", spy_step)
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=n_iters,
                        trials=300, seed=1)
        run(cfg)
        # 150 + 150 trials, each drawing all n_iters steps over its tiles
        # through one (C, 10) buffer, mapped in (C, 150, 10) tiles within
        # the budget
        span = min(n_iters, budget // (150 * 10), simulate._TRIAL_TILE // 10)
        assert sum(shape[0] for shape, _ in drawn) == 300 * n_iters
        assert {shape[1:] for shape, _ in drawn} == {(10,)}
        assert {base for _, base in drawn} == {(span, 10)}
        assert sum(shape[0] * shape[1] for shape, _ in seen) == 300 * n_iters
        assert {shape[1:] for shape, _ in seen} == {(150, 10)}
        assert {base for _, base in seen} == {(span, 150, 10)}
        assert span * 150 * 10 <= budget and span * 10 <= simulate._TRIAL_TILE
        # each block steps all n_iters steps of its 150 rows in kernel slices
        assert sum(shape[0] for shape, _ in slices) == 2 * n_iters
        for shape, held in slices:
            assert shape[1:] == (150, 10) and held <= kernel_budget

    def test_split_draws_stay_within_budget_per_process(self, gauss1, net_a25,
                                                        monkeypatch, forks,
                                                        tmp_path):
        # each process logs its own draws: the parent block 0 (150 trials),
        # the child block 1 (150 trials), each within the tile budget
        budget, log = simulate._TILE_BUDGET, tmp_path / "draws.log"

        def spy(m, segs, z):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {z.shape[0]} {z.shape[1]} {z.base.size}\n")
            return to_statistics(m, segs, z)

        monkeypatch.setattr(simulate, "to_statistics", spy)
        run(SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=3000,
                      trials=300, seed=1))
        steps = {os.getpid(): 0, forks[0]: 0}
        for line in log.read_text().splitlines():
            pid, drawn, rows, held = map(int, line.split())
            steps[pid] += drawn * rows
            assert rows == 150
            assert drawn * 150 * 10 <= budget and held <= budget
        assert steps == {os.getpid(): 150 * 3000, forks[0]: 150 * 3000}


class TestSplit:
    """run() hands every other trial block to one forked child and gives
    the same output, bit for bit, as when one process runs every block."""

    @pytest.mark.parametrize("chunk, trials", [(1, 15), (7, 57), (None, 257)])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model", [GaussianModel(1.0), ExponentialModel(5.0)],
                             ids=["gaussian", "exponential"])
    def test_split_matches_serial(self, model, scheme, chunk, trials, net_a25,
                                  monkeypatch, forks):
        # tiles of 4 steps for the widest block: the switch into step 9
        # (index 8) falls on a tile edge, the one into step 20 (index 19)
        # inside a tile; blocks of 7 leave a one-trial tail, and the default
        # blocks of 257 trials are 128 and 129 wide
        width = max(2, *np.diff(simulate.blocks(trials, 0, chunk)))
        monkeypatch.setattr(simulate, "_TILE_BUDGET", 4 * width * 10)
        cfg = SimConfig(network=net_a25, model=model, mu=0.1, n_iters=30,
                        trials=trials, scheme=scheme, schedule=THREE_SEGMENTS,
                        seed=9)
        y0 = np.linspace(-1.0, 1.0, 10)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_use_child", never)
            one = run(cfg, (3, 9), y0, chunk)
        assert forks == []
        two = run(cfg, (3, 9), y0, chunk)
        assert len(forks) == 1
        np.testing.assert_array_equal(two.terminal_states, one.terminal_states)
        for k in (3, 9):
            np.testing.assert_array_equal(two.trajectories[k], one.trajectories[k])
        assert_no_child_left()

    def test_blocks_follow_the_run_shape(self):
        large = simulate._SPLIT_WORK
        assert simulate.blocks(300, 0) == [0, 150, 300]
        assert simulate.blocks(100, large - 1) == [0, 100]
        assert simulate.blocks(100, large) == [0, 50, 100]
        # three blocks of 200, or four of 150 once the run is large
        assert simulate.blocks(600, 0) == [0, 200, 400, 600]
        assert simulate.blocks(600, large) == [0, 150, 300, 450, 600]
        assert set(np.diff(simulate.blocks(10_000, large))) == {250}
        assert set(np.diff(simulate.blocks(257, large))) == {128, 129}
        assert simulate.blocks(3, large) == [0, 1, 3]
        assert simulate.blocks(1, large) == [0, 1]
        # chunk_trials keeps its blocks, whatever the work
        assert simulate.blocks(10, large, 3) == [0, 3, 6, 9, 10]

    def test_one_block_never_forks(self, gauss1, net_a25, forks):
        # the fork's work is forced; the blocks follow the small runs' real
        # shape, a single block each
        for trials, chunk in ((256, None), (1, None), (12, 12), (12, 20)):
            assert len(simulate.blocks(trials, trials * 5 * 10, chunk)) == 2
            run(SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                          trials=trials, seed=1), chunk_trials=chunk)
        assert forks == []

    def test_one_block_and_small_runs_stay_in_process(self, gauss1, net_a25,
                                                       fork_counter, monkeypatch):
        # one block of 100 trials by 3,000 steps, past _SPLIT_WORK
        assert 100 * 3000 * 10 >= simulate._SPLIT_WORK
        run(SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=3000,
                      trials=100, seed=1), chunk_trials=100)
        # two blocks, one trial-step short of the split
        monkeypatch.setattr(simulate, "_SPLIT_WORK", 257 * 5 * 10 + 1)
        run(SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                      trials=257, seed=1))
        assert fork_counter == []

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_large_run_under_256_trials_forks_once(self, scheme, gauss1, net_a25,
                                                   fork_counter, monkeypatch):
        # 100 trials of 3,000 steps, past _SPLIT_WORK: two blocks of 50 trials
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=3000,
                        trials=100, scheme=scheme, schedule=((1, 0), (1001, 1)),
                        seed=4)
        assert cfg.trials * cfg.n_iters * 10 >= simulate._SPLIT_WORK
        assert simulate.blocks(100, cfg.trials * cfg.n_iters * 10) == [0, 50, 100]
        with monkeypatch.context() as m:
            m.setattr(simulate, "_use_child", never)
            one = run(cfg, (3,))
        assert fork_counter == []
        two = run(cfg, (3,))
        assert len(fork_counter) == 1
        np.testing.assert_array_equal(two.terminal_states, one.terminal_states)
        np.testing.assert_array_equal(two.trajectories[3], one.trajectories[3])
        assert_no_child_left()

    @pytest.mark.parametrize("side, error", [("child", RuntimeError),
                                             ("parent", ValueError)])
    def test_failure_on_either_side_reaches_the_caller(self, gauss1, net_a25,
                                                       monkeypatch, forks,
                                                       side, error):
        parent = os.getpid()

        def failing(m, rng, out, standard):
            if (os.getpid() == parent) == (side == "parent"):
                raise ValueError(f"draw failed in the {side}")
            return standard(m, rng, out)

        spy_on_standard(monkeypatch, failing)
        with pytest.raises(error, match=f"draw failed in the {side}"):
            run(SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                          trials=600, seed=1))
        assert len(forks) == 1
        assert_no_child_left()


class TestStationarity:
    def test_transient_forgotten(self, gauss1, net_a25):
        # nonzero start decays like eta^n pathwise
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=100,
                        trials=32, seed=2)
        base = run(cfg)
        shifted = run(cfg, y0=np.full(10, 3.0))
        eta_max = (1 - 0.1) * 0.25
        gap = np.max(np.abs(base.terminal_states - shifted.terminal_states))
        assert gap <= 3.0 * 10 * eta_max ** 100 + 1e-12

    def test_doubling_horizon_is_noise_level(self, gauss1, net_a25):
        cfg100 = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=100,
                           trials=2000, seed=4)
        cfg200 = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=200,
                           trials=2000, seed=5)
        s100 = run(cfg100).terminal_states[:, 3]
        s200 = run(cfg200).terminal_states[:, 3]
        assert ks_2samp(s100, s200).pvalue > 0.01


class TestEmpiricalCdf:
    def test_single_trial_step_function(self, gauss1, net_a25):
        cfg = SimConfig(network=net_a25, model=gauss1, mu=0.1, n_iters=5,
                        trials=1, seed=0)
        ens = run(cfg)
        cdf = EmpiricalCdf(ens.terminal_states[:, 3])
        v = ens.terminal_states[0, 3]
        assert cdf(v - 1e-9) == 0.0
        assert cdf(v) == 1.0

    def test_exchangeable_nodes_agree(self, gauss1):
        # complete graph with uniform weights: node CDFs match within noise
        S = 5
        edges = [(i, j) for i in range(S) for j in range(i + 1, S)]
        net = build_uniform_matrix(neighbor_sets_from_edges(S, edges), 0.4)
        cfg = SimConfig(network=net, model=gauss1, mu=0.1, n_iters=80,
                        trials=4000, seed=6)
        ens = run(cfg)
        assert ks_2samp(ens.terminal_states[:, 0],
                        ens.terminal_states[:, 3]).pvalue > 0.01

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_query_reads_nan(self):
        # searchsorted puts NaN past every sample value; the CDF reads NaN
        # there, and every other query reads the step function as before
        sample = np.random.default_rng(2).normal(size=200)
        cdf = EmpiricalCdf(sample)
        x = np.concatenate([np.linspace(-4, 4, 101), sample, [np.inf, -np.inf]])
        np.testing.assert_array_equal(
            cdf(x), np.searchsorted(np.sort(sample), x, side="right") / 200)
        got = cdf(np.insert(x, [0, 50, x.size], np.nan))
        np.testing.assert_array_equal(np.flatnonzero(np.isnan(got)), [0, 51, x.size + 2])
        np.testing.assert_array_equal(got[~np.isnan(got)], cdf(x))
        assert np.isnan(cdf(np.nan)) and np.ndim(cdf(np.nan)) == 0
        assert cdf(np.inf) == 1.0 and np.ndim(cdf(0.0)) == 0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empirical CDF needs at least one sample"):
            EmpiricalCdf([])
        with pytest.raises(ValueError, match="KS distance needs at least one sample"):
            ks_distance([], lambda t: np.asarray(t))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sample, match", [
        ([np.nan, 1.0], "needs a sample without NaN"),
        ([0.0, 1.0, np.nan], "needs a sample without NaN"),
        (np.zeros((3, 2)), r"needs a 1-D sample, got shape \(3, 2\)"),
        (np.zeros((1, 1)), r"needs a 1-D sample, got shape \(1, 1\)"),
        (0.5, r"needs a 1-D sample, got shape \(\)"),
    ], ids=["nan", "nan_last", "2d", "1x1", "0d"])
    def test_bad_sample_rejected(self, sample, match):
        with pytest.raises(ValueError, match=f"empirical CDF {match}"):
            EmpiricalCdf(sample)
        with pytest.raises(ValueError, match=f"KS distance {match}"):
            ks_distance(sample, normal_cdf)

    def test_ks_distance_helper(self):
        sample = np.array([0.1, 0.4, 0.7])
        assert ks_distance(sample, lambda t: np.asarray(t)) == pytest.approx(
            max(abs(1 / 3 - 0.1), abs(0.4 - 1 / 3), abs(2 / 3 - 0.4),
                abs(0.7 - 2 / 3), abs(1.0 - 0.7)))


class TestReactionTime:
    def test_instantaneous_jump(self):
        traj = np.concatenate([np.zeros(50), np.ones(50)])
        assert reaction_time(traj, 51) == 1

    def test_geometric_approach(self):
        # reaching 90% of the gap takes ceil(log(0.1)/log(eta)) steps
        eta = 0.8
        n_pre, n_post = 40, 120
        post = 1 - eta ** np.arange(1, n_post + 1)
        traj = np.concatenate([np.zeros(n_pre), post])
        got = reaction_time(traj, n_pre + 1)
        assert got == int(np.ceil(np.log(0.1) / np.log(eta)))

    def test_unreached_signals(self):
        # a target beyond the settled level is never crossed
        traj = np.concatenate([np.zeros(50), np.linspace(0, 0.5, 50)])
        with pytest.raises(ValueError, match="unreached"):
            reaction_time(traj, 51, target_fraction=2.0)

    def test_downward_switch(self):
        traj = np.concatenate([np.ones(50), np.zeros(50)])
        assert reaction_time(traj, 51) == 1

    @pytest.mark.parametrize("post_end", [150, 101, 40, 50])
    def test_post_end_outside_the_trace_raises(self, post_end):
        # past the end (an empty or clipped slice) or before the switch
        traj = np.concatenate([np.zeros(50), np.ones(50)])
        with pytest.raises(ValueError, match="post_end must lie in"):
            reaction_time(traj, 51, post_end=post_end)

    @pytest.mark.parametrize("post_end", [51, 100])
    def test_post_end_at_either_bound(self, post_end):
        traj = np.concatenate([np.zeros(50), np.ones(50)])
        assert reaction_time(traj, 51, post_end=post_end) == 1

    def test_steps_are_whole_numbers(self):
        # an integral float is a step; a fraction or a bool is rejected by
        # name, not sliced or read as step 1
        traj = np.concatenate([np.zeros(50), 1 - 0.5 ** np.arange(1, 51)])
        assert reaction_time(traj, 51.0, post_end=99.0) == reaction_time(traj, 51, post_end=99)
        for kwargs in ({"switch_time": 50.5}, {"switch_time": True},
                       {"switch_time": 51, "post_end": 99.5},
                       {"switch_time": 51, "post_end": True}):
            name = list(kwargs)[-1]
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                reaction_time(traj, **kwargs)


class TestSchemeOrdering:
    def test_reaction_ordering_small_scale(self):
        # scaled-down version of the adaptivity experiment
        model = GaussianModel(2.0)
        net = make_network(0.75)
        schedule = ((1, 0), (301, 1), (601, 0))
        times = {}
        for scheme in (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED):
            cfg = SimConfig(network=net, model=model, mu=0.1, n_iters=900,
                            trials=60, scheme=scheme, schedule=schedule, seed=1)
            ens = run(cfg, trajectory_nodes=(3,))
            times[scheme] = reaction_time(ens.trajectories[3], 301, post_end=600)
        assert times[ONE_BIT_X] < times[QUANTIZED_STATE]
        assert times[ONE_BIT_X] <= times[UNQUANTIZED]
