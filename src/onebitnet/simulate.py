"""Monte Carlo engine for the diffusion recursions.

Every scheme adapts, v = y + mu (x - y), then combines the self-term a_k v
with what the neighbors send:

* ``one_bit_x`` - their one-bit quantized fresh statistics;
* ``quantized_state`` - their one-bit quantized intermediate states
  (comparison baseline with sluggish reaction);
* ``unquantized`` - their full-precision intermediate states (classical
  diffusion, combined with the whole row of A).

The one-bit quantizer sends E_1 x when its input is at least 0 and E_0 x
otherwise. ``make_step`` builds the single update kernel, which steps a
tile of draws (steps x trials x nodes) and writes each step's states into
the tile's buffer; ``run`` and the closed-form oracle checks in
``validation`` both drive it.

Each trial draws its statistics from a counter-based Philox stream keyed
by (master seed, trial index), so terminal states are bit-identical
regardless of execution order or tiling. A trial draws standard variates
(``model.standard``), the same stream whatever the schedule; a tile of
trials then becomes statistics by one affine map per hypothesis segment
(``to_statistics``), rounded as ``model.sample`` rounds them. ``run``
picks its trial blocks from the run's shape alone (``blocks``):
ceil(trials / 256) of equal size, an even number of them in a run of at
least ``_SPLIT_WORK`` trial-steps x nodes. It reuses one Philox and draws
a block of at most B trials in tiles of C = min(n_iters, ``_TILE_BUDGET``
// (B S), ``_TRIAL_TILE`` // S) steps, a fixed budget of doubles whatever
n_iters is. A trial's first tile resets the Philox to the trial's key;
each later tile restores the generator state saved after the trial's
previous tile, so every trial draws exactly its own stream, one
``model.standard`` call per trial and tile into a contiguous (C, S)
buffer that is copied into the step-major tile. The kernel steps a tile
in slices of at most ``_KERNEL_BUDGET`` doubles, and the trajectories
are summed once per slice.

A run of at least ``_SPLIT_WORK`` trial-steps x nodes, in a process with a
second CPU (Linux's ``sched_getaffinity``) and one Python thread, forks
one child for its odd blocks, about half the trials. The child writes its
terminal rows and per-block trajectory sums to shared memory, and the
sums are added in block order, so no output depends on whether a run
split. On Python 3.12 and later, ``os.fork`` warns (DeprecationWarning)
when the process has other OS threads, as OpenBLAS's pool is; the split
goes ahead and the warning is left to the caller's filters.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .models import ObservationModel, as_hypothesis
from .network import NetworkSpec, whole_number

ONE_BIT_X = "one_bit_x"
QUANTIZED_STATE = "quantized_state"
UNQUANTIZED = "unquantized"
SCHEMES = (ONE_BIT_X, QUANTIZED_STATE, UNQUANTIZED)

# tile: blocks of at most _BLOCK_TRIALS trials, so that one step's
# (trials, S) slab stays in L2, by C steps, whatever n_iters is. Each
# trial's C S draws stay within _TRIAL_TILE doubles (409 steps at S = 10),
# which is the cap that binds for default blocks (at most 256 trials, so at
# most 8 MB a tile): a longer tile saves only the save and restore of the
# trial's Philox state at a tile edge (about 6 us against about 75 us to
# draw 4,096 normals), while a narrow block's tile stays small (the
# 100-trial, 3,000-step trajectories ran about 10% faster than in
# 2,097-step tiles). The (C, B, S) draws stay within _TILE_BUDGET doubles,
# which binds only for blocks wider than 256 trials (chunk_trials)
_TILE_BUDGET = 2 ** 20
_TRIAL_TILE = 2 ** 12
_BLOCK_TRIALS = 256
# the kernel steps a tile in slices of at most this many doubles, which
# hold the slice's states, a second buffer: one slice per tile would double
# the tiles' memory, and it ran the 2,000-trial, 1,000-step ensembles about
# 20% slower; slices of 2^13 and 2^17 doubles timed within 2^15's spread
_KERNEL_BUDGET = 2 ** 15
# a run of at least this many trial-steps x nodes has an even number of
# blocks and splits them with a forked child (``_use_child``); below it the
# fork costs more than it saves
_SPLIT_WORK = 2 ** 21
_SPLIT_SUMS = 2 ** 20  # at most this many per-block trajectory sums (doubles)
_MESSAGE_BYTES = 1024  # the shared room for a failed child's exception


def _whole(name: str, value) -> int:
    """``whole_number(value)``, or a ValueError naming ``name``."""
    out = whole_number(value)
    if out is None:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return out


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description.

    ``schedule`` is a tuple of (start_step, hypothesis) segments, ordered,
    with the first segment starting at step 1; each segment applies until
    the next one begins. Starts are whole numbers (``network.whole_number``)
    and hypotheses 0 or 1 (``models.as_hypothesis``): a bool or a fraction
    raises.
    """

    network: NetworkSpec
    model: ObservationModel
    mu: float
    n_iters: int
    trials: int
    scheme: str = ONE_BIT_X
    schedule: tuple[tuple[int, int], ...] = ((1, 0),)
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("n_iters", "trials", "seed"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.n_iters < 1 or self.trials < 1:
            raise ValueError("n_iters and trials must be at least 1")
        if not 0 < self.mu < 1:
            raise ValueError("mu must be in (0,1)")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        sched = tuple((_whole("schedule start", s), as_hypothesis(h))
                      for s, h in self.schedule)
        if not sched or sched[0][0] != 1:
            raise ValueError("schedule must start at step 1")
        starts = [s for s, _ in sched]
        if sorted(starts) != starts or len(set(starts)) != len(starts):
            raise ValueError("schedule segments must have increasing start steps")
        object.__setattr__(self, "schedule", sched)

    def hypothesis_steps(self) -> np.ndarray:
        """Array of length n_iters with the hypothesis active at each step."""
        out = np.empty(self.n_iters, dtype=np.int64)
        bounds = [s for s, _ in self.schedule] + [self.n_iters + 1]
        for (start, h), end in zip(self.schedule, bounds[1:]):
            if start > self.n_iters:
                break
            out[start - 1:min(end - 1, self.n_iters)] = h
        return out


@dataclass
class TrialEnsemble:
    """Terminal states (trials x S) and optional mean trajectories."""

    terminal_states: np.ndarray
    trajectories: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return self.terminal_states.shape[0]


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed),
                                                     np.uint64(trial)]))


def segments(h_steps: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, end, hypothesis) of each run of equal entries in ``h_steps``."""
    cuts = np.flatnonzero(np.diff(h_steps)) + 1
    return [(s, e, int(h_steps[s])) for s, e in zip([0, *cuts], [*cuts, len(h_steps)])]


def to_statistics(model: ObservationModel, segs: list, z: np.ndarray) -> np.ndarray:
    """Standard draws ``z`` (steps, ...) mapped in place to statistics: each
    segment's steps scaled, then shifted (``model.affine``), as
    ``model.sample`` rounds them."""
    for start, end, h in segs:
        scale, shift = model.affine(h)
        z[start:end] *= scale
        z[start:end] += shift
    return z


def draw_statistics(model: ObservationModel, segs: list, rng: np.random.Generator,
                    out: np.ndarray) -> np.ndarray:
    """One trial's fresh statistics into ``out`` (n_iters, S), C-contiguous:
    its standard draws, then each segment's affine map; the draws ``run``
    gives the trial."""
    return to_statistics(model, segs, model.standard(rng, out))


def make_step(network: NetworkSpec, model: ObservationModel, mu: float,
              scheme: str = ONE_BIT_X):
    """The tile kernel ``step(y, x, out=None) -> out`` of one scheme.

    From state ``y`` it takes one step per draw ``x[i]`` and writes the
    state after that step into ``out[i]``. x is a (c, rows, S) tile, c
    steps of ``rows`` trials (one trial is a tile of one row; any other
    ndim raises); y broadcasts to x[0] and shares no memory with ``out``,
    an array of x's shape (allocated when None), which is returned. Weights and message levels are resolved once. ``one_bit_x``
    sends messages that depend on x alone, so their products for the whole
    tile are one numpy call; the other schemes' products are one per step.
    Every product is the step's own (rows, S) matrix product, so a row's
    result does not depend on the tile's length, nor, in tiles of two or
    more rows, on the other rows (numpy's one-row product, gemv, rounds
    unlike gemm).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    a = np.diag(network.A)
    c_t = (network.A - np.diag(a)).T
    a_t = network.A.T
    e0, e1 = model.message_values()

    def sent(z):
        # E_1 x where z >= 0, else E_0 x: on e1 + (1 - on) e0 is exact, as one
        # term is zero, and takes a fraction of np.where's time
        on = (z >= 0.0).astype(float)
        levels = on * e1
        on -= 1.0
        on *= -e0
        levels += on
        return levels

    def step(y, x, out=None):
        if np.ndim(x) != 3:
            # a (trials, S) array would read as steps of one trial
            raise ValueError(f"x must be a (steps, rows, S) tile, got shape "
                             f"{np.shape(x)}")
        if out is None:
            out = np.empty(np.shape(x))
        elif out.shape != np.shape(x):
            raise ValueError(f"out must be an array of shape {np.shape(x)}, "
                             f"got shape {out.shape}")
        if scheme == ONE_BIT_X:
            # every step's messages at once, as a stack of (rows, S) products:
            # a step of one row stays a vector-matrix product
            np.matmul(sent(x), c_t, out=out)
        for xi, yi in zip(x, out):
            # y + mu (x - y), then a v + msg @ c_t (or v @ a_t) into out[i]
            v = xi - y
            v *= mu
            v += y
            if scheme == UNQUANTIZED:
                np.matmul(v, a_t, out=yi)
            else:
                if scheme == QUANTIZED_STATE:
                    np.matmul(sent(v), c_t, out=yi)
                v *= a
                yi += v
            y = yi
        return out

    return step


def blocks(trials: int, work: int, chunk_trials: int | None = None) -> list[int]:
    """The first trial of each of ``run``'s blocks, then ``trials``.

    Blocks of ``chunk_trials`` if given; otherwise ceil(trials / 256)
    blocks, made even (so at least two) when ``work`` reaches
    ``_SPLIT_WORK``, of sizes that differ by at most one trial.
    """
    if chunk_trials is not None:
        return [*range(0, trials, chunk_trials), trials]
    count = -(-trials // _BLOCK_TRIALS)
    if work >= _SPLIT_WORK:
        count += count % 2
    count = min(count, trials)
    return [b * trials // count for b in range(count + 1)]


def run(config: SimConfig, trajectory_nodes=(), y0=None,
        chunk_trials: int | None = None) -> TrialEnsemble:
    """Run the Monte Carlo ensemble.

    States start at zero (the transient is eliminated); ``y0`` overrides
    the start for transient studies. Trajectories (per-step mean of the
    state over trials) are accumulated only for the requested nodes.

    Trials run in blocks (``blocks``): of ``chunk_trials`` if given, else
    of equal size, at most 256, and an even number of them in a run of at
    least ``_SPLIT_WORK`` trial-steps x nodes. A block draws in tiles of C
    steps, C = min(n_iters, ``_TILE_BUDGET`` // (B S), ``_TRIAL_TILE`` // S)
    for B the widest block: each trial's standard draws for the tile are
    one ``model.standard`` call, and the whole tile becomes statistics by
    one in-place scale and shift per hypothesis segment (``to_statistics``).
    Each tile steps through ``make_step``'s kernel in slices within
    ``_KERNEL_BUDGET`` doubles, which hold the slice's states; trajectories
    are summed from them once per slice.
    Between a trial's tiles its Philox state is saved and restored, so
    terminal states do not depend on the block or tile split. Trajectories
    are summed per block, so they are bit-stable only for a fixed block
    split.

    A large run (``_use_child``) hands every other block to one forked
    child, which writes its rows and per-block trajectory sums to shared
    memory; the sums are added in block order, so the output is the same,
    bit for bit, as when every block runs in this process. The child is
    reaped before ``run`` returns or raises, and its failure raises here.
    """
    S, n = config.network.size, config.n_iters
    requested = tuple(trajectory_nodes)
    traj_nodes = tuple(dict.fromkeys(map(whole_number, requested)))
    if not all(k is not None and 0 <= k < S for k in traj_nodes):
        raise ValueError(f"trajectory_nodes must be whole numbers in [0, {S}), "
                         f"got {requested}")
    y_start = np.asarray(0.0 if y0 is None else y0, dtype=float)
    if y_start.ndim > 1 or y_start.size not in (1, S):
        raise ValueError(f"y0 must broadcast to ({S},), got shape {y_start.shape}")
    if chunk_trials is not None:
        chunk_trials = _whole("chunk_trials", chunk_trials)
        if chunk_trials < 1:
            raise ValueError(f"chunk_trials must be at least 1, got {chunk_trials}")
    work = config.trials * n * S
    bounds = blocks(config.trials, work, chunk_trials)
    n_blocks = len(bounds) - 1
    # a lone trial gets a spare row: numpy's one-row product (gemv) rounds unlike gemm
    width = max(2, *(b - a for a, b in zip(bounds, bounds[1:])))
    span = max(1, min(n, _TILE_BUDGET // (width * S), _TRIAL_TILE // S))
    slice_steps = max(1, min(span, _KERNEL_BUDGET // (width * S)))
    step = make_step(config.network, config.model, config.mu, config.scheme)
    h_steps = config.hypothesis_steps()
    bit_gen = np.random.Philox(key=[np.uint64(config.seed), np.uint64(0)])
    rng, fresh = np.random.Generator(bit_gen), bit_gen.state
    # the state _trial_rng(seed, trial) starts in, once its key[1] is the
    # trial: counter 0, no bits left; as Python ints, which the state's
    # setter reads in about half the time it takes for numpy arrays
    fresh["state"] = {name: v.tolist() for name, v in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key, standard = fresh["state"]["key"], config.model.standard

    def run_blocks(first, stride, terminal, sums):
        """Blocks first, first + stride, ...: their rows into ``terminal``,
        block b's per-step sums of the trajectory nodes into sums[b % len(sums)]."""
        # each process allocates its own tiles: pages shared with a forked
        # child would be copied on the first write
        x = np.zeros((span, width, S))
        z = np.empty((span, S))  # one trial's standard draws for a tile
        states = np.empty(slice_steps * width * S)
        for b in range(first, n_blocks, stride):
            start, end = bounds[b], bounds[b + 1]
            count, rows = end - start, max(end - start, 2)
            saved = [None] * count
            y = np.broadcast_to(y_start, (rows, S))
            traj_rows = list(zip(traj_nodes, sums[b % len(sums)]))
            for c0 in range(0, n, span):
                c1 = min(n, c0 + span)
                tile, draws = x[:c1 - c0], z[:c1 - c0]
                for t in range(count):
                    if c0 == 0:
                        key[1] = start + t
                        bit_gen.state = fresh
                    else:
                        bit_gen.state = saved[t]
                    # one call whatever the schedule: every hypothesis maps
                    # the same standard stream
                    tile[:, t] = standard(rng, draws)
                    if c1 < n:
                        saved[t] = bit_gen.state
                to_statistics(config.model, segments(h_steps[c0:c1]), tile[:, :count])
                for s0 in range(c0, c1, slice_steps):
                    s1 = min(c1, s0 + slice_steps)
                    out = step(y, tile[s0 - c0:s1 - c0, :rows],
                               states[:(s1 - s0) * rows * S].reshape(s1 - s0, rows, S))
                    for k, row in traj_rows:
                        row[s0:s1] += out[:, :count, k].sum(axis=1)
                    # the next slice overwrites ``states``
                    y = out[-1].copy()
            terminal[start:end] = y[:count]

    sums_shape = (n_blocks, len(traj_nodes), n)
    if _use_child(n_blocks, work, prod(sums_shape)):
        terminal, sums = _forked(run_blocks, (config.trials, S), sums_shape)
    else:
        terminal, sums = np.empty((config.trials, S)), np.zeros((1, *sums_shape[1:]))
        run_blocks(0, 1, terminal, sums)
    # sums[0] + sums[1] + ...: the order in which one process adds its blocks
    total = sums[0].copy()
    for part in sums[1:]:
        total += part
    trajectories = {k: total[j] / config.trials for j, k in enumerate(traj_nodes)}
    return TrialEnsemble(terminal_states=terminal, trajectories=trajectories)


def _use_child(n_blocks: int, work: int, sums: int) -> bool:
    """Whether ``run`` splits its blocks with a forked child: at least two
    blocks and ``_SPLIT_WORK`` trial-steps x nodes, at most ``_SPLIT_SUMS``
    per-block trajectory sums, a second CPU for this process (Linux) and no
    other Python thread, which a fork would leave behind."""
    return (n_blocks >= 2 and work >= _SPLIT_WORK
            and sums <= _SPLIT_SUMS
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _forked(run_blocks, terminal_shape: tuple, sums_shape: tuple):
    """``run_blocks`` over every block, the odd ones in a forked child: the
    terminal rows and the per-block sums, views of the anonymous shared map
    that both processes write, unmapped with the last view."""
    import mmap  # imported here: a process that never splits skips their ~1 ms
    import signal

    n_terminal, n_sums = prod(terminal_shape), prod(sums_shape)
    # a failed child's message, then the terminal rows, then the sums
    shared = mmap.mmap(-1, _MESSAGE_BYTES + 8 * (n_terminal + n_sums))
    terminal = np.frombuffer(shared, float, n_terminal, _MESSAGE_BYTES)
    sums = np.frombuffer(shared, float, n_sums, _MESSAGE_BYTES + 8 * n_terminal)
    terminal, sums = terminal.reshape(terminal_shape), sums.reshape(sums_shape)
    pid = os.fork()
    if pid == 0:
        # the child leaves by os._exit, past the caller's handlers and buffers
        code = 0
        try:
            run_blocks(1, 2, terminal, sums)
        except BaseException as exc:
            code = 1
            message = repr(exc).encode()[:_MESSAGE_BYTES]
            shared[:len(message)] = message
        finally:
            os._exit(code)
    try:
        run_blocks(0, 2, terminal, sums)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        try:
            status = os.waitpid(pid, 0)[1]
        except BaseException:  # an interrupted wait: no child outlives run()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    if status != 0:
        message = shared[:_MESSAGE_BYTES].rstrip(b"\0").decode(errors="replace")
        raise RuntimeError(f"the forked half of run() failed (exit status "
                           f"{os.waitstatus_to_exitcode(status)}): {message}")
    return terminal, sums


def hypothesis_ensembles(network: NetworkSpec, model: ObservationModel,
                         mu: float, n_iters: int, trials: int, seed: int = 0,
                         scheme: str = ONE_BIT_X) -> tuple[np.ndarray, np.ndarray]:
    """Terminal states (trials x S) with h=0, then h=1, held for the whole run."""
    return tuple(run(SimConfig(network=network, model=model, mu=mu,
                               n_iters=n_iters, trials=trials, scheme=scheme,
                               schedule=((1, h),), seed=seed)).terminal_states
                 for h in (0, 1))


class EmpiricalCdf:
    """Right-continuous empirical CDF of a sample."""

    def __init__(self, sample):
        self.sorted = np.sort(np.asarray(sample, dtype=float))
        self.n = len(self.sorted)

    def __call__(self, t):
        idx = np.searchsorted(self.sorted, np.asarray(t, dtype=float),
                              side="right")
        return idx / self.n


def empirical_cdf(ensemble: TrialEnsemble, k: int) -> EmpiricalCdf:
    return EmpiricalCdf(ensemble.terminal_states[:, k])


def ks_distance(sample, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between a sample and a CDF."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = len(xs)
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(i / n - f)), np.max(np.abs((i - 1) / n - f))))


def reaction_time(trajectory, switch_time: int, target_fraction: float = 0.9,
                  post_end: int | None = None) -> int:
    """Steps needed after a hypothesis switch to cross a fraction of the
    gap between the pre-switch and post-switch steady levels.

    ``trajectory[i]`` is the mean state at step i+1; ``switch_time`` is the
    first step governed by the new hypothesis; ``post_end``, the last step
    of the post-switch segment, lies in [switch_time, len(trajectory)]
    (default: the end of the trace); both are whole numbers. Steady levels
    are averaged over the last max(1, min(200, post-switch length // 4))
    steps of each segment. Returns the 1-based count of post-switch steps;
    raises if the trace never crosses the target ("unreached").
    """
    traj = np.asarray(trajectory, dtype=float)
    n = len(traj)
    switch_time = _whole("switch_time", switch_time)
    if not 1 < switch_time <= n:
        raise ValueError("switch_time must lie inside the trajectory")
    post_end = n if post_end is None else _whole("post_end", post_end)
    if not switch_time <= post_end <= n:
        raise ValueError(f"post_end must lie in [switch_time, len(trajectory)] "
                         f"= [{switch_time}, {n}], got {post_end}")
    seg_len = post_end - switch_time + 1
    w = max(1, min(200, seg_len // 4))
    pre = float(np.mean(traj[max(0, switch_time - 1 - w):switch_time - 1]))
    post = float(np.mean(traj[post_end - w:post_end]))
    if post == pre:
        raise ValueError("pre- and post-switch levels coincide")
    frac = (traj[switch_time - 1:post_end] - pre) / (post - pre)
    crossed = np.nonzero(frac >= target_fraction)[0]
    if crossed.size == 0:
        raise ValueError(
            f"trajectory never reaches {target_fraction:.0%} of the switch gap "
            "(unreached)")
    return int(crossed[0]) + 1
