"""Variance-reduced stochastic gradient estimators: SAGA, SVRG, SARAH.

Every estimate has one anchored shape: the fresh mini-batch gradients,
corrected by stored anchor gradients,

    v = mean_{i in B} (grad f_i(x) - anchor_i) + anchor_mean,

written once on the base class. A kind states only its anchor rows and
how its memory moves after a step:

* SAGA anchors on a table of the last gradient seen per component. It
  writes the fresh rows back and updates the table mean incrementally.
  The table is dense (N x n memory), which is the scaling limit of this
  implementation.
* SVRG anchors on the gradients at a snapshot point, refreshed every
  ``period`` iterations; at a refresh the emitted estimate IS the full
  gradient, bit for bit.
* SARAH is SVRG whose anchor moves to (x^k, v^k) after every step, so
  it recursively corrects its previous estimate and restarts from the
  full gradient every ``period`` iterations.
* ``"full"`` is SVRG with batch N and period 1: the exact mean gradient
  at every step.

``reset(component_grad, full_grad)`` binds the two gradient oracles, so
that ``estimate(k, x)`` is itself the gradient oracle of the primal-dual
loop. The memory is seeded by the k = 0 estimate, at the x the loop
starts from, and its N evaluations are charged there; an estimate before
``reset``, or a first one at k > 0, raises RuntimeError.

Batches are drawn uniformly without replacement as a pure function of
(seed, k) and reduced in ascending index order, so the whole estimate
stream is reproducible bit for bit. ``sample_batch`` defines the batch
of one k: a fresh ``default_rng([seed, k])``, whose ``choice`` draws the
picks (by Floyd's algorithm, below numpy's tail-shuffle regime), sorted.
Building that generator costs more than a small batch's gradients, so
an estimator draws its batches a block of
``max(1, BATCH_BLOCK_PICKS // batch_size)`` iterations at a time, by
``sample_batches``. That function reproduces numpy's draw with
array arithmetic over the block's lanes (one lane per k): the
``SeedSequence`` hash of ``[seed, k]``, ``PCG64``'s seeding and its
XSL-RR output, the 32-bit draws of ``next_uint32``, Lemire's bounded
integers (ACM TOMACS 2019) on ``[0, j]`` for ``j = N - b ... N - 1``,
and Floyd's rule that a repeated draw takes ``j``. Two kinds of lane go
through ``sample_batch`` instead:

* a lane one of whose draws numpy rejects and draws again, which
  happens with probability below ``b N / 2**32``;
* a lane that numpy draws by another method, or hashes from more
  words: its tail shuffle (``N > 10000`` and ``b > N // 50``), bounds of
  ``2**32 - 1`` or more (``N >= 2**32``), and every ``k >= 2**32``.

Numpy does not promise ``Generator.choice``'s stream across versions
(NEP 19). ``sample_batch`` stays the definition; the tests that compare
``sample_batches`` with it are what flag a numpy release whose draw
differs.
"""

import functools

import numpy as np

__all__ = [
    "sample_batch",
    "sample_batches",
    "make_estimator",
    "default_period",
    "SagaEstimator",
    "SvrgEstimator",
    "SarahEstimator",
]


def _check_batch_size(n_components, batch_size):
    if not 1 <= batch_size <= n_components:
        raise ValueError(
            f"batch size must be in [1, {n_components}], got {batch_size}"
        )


def _check_seed(seed, k=0):
    if seed < 0 or k < 0:
        raise ValueError("seed and iteration index must be nonnegative")


def sample_batch(seed, n_components, batch_size, k):
    """Sorted batch of distinct indices, deterministic in (seed, k)."""
    _check_batch_size(n_components, batch_size)
    _check_seed(seed, k)
    rng = np.random.default_rng([seed, k])
    picks = rng.choice(n_components, size=batch_size, replace=False)
    return np.sort(picks)


#: picks per block of batches an estimator draws at once (32 KB of int64)
BATCH_BLOCK_PICKS = 4096

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence: pool words and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def sample_batches(seed, n_components, batch_size, k0, count):
    """``(count, batch_size)`` int64 array whose row i is ``sample_batch(seed, N, b, k0 + i)``.

    Bit for bit, computed over the whole block at once (module docstring).
    """
    _check_batch_size(n_components, batch_size)
    _check_seed(seed, k0)
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    picks = np.empty((count, batch_size), dtype=np.int64)
    first = n_components - batch_size
    tail = n_components > 10000 and batch_size > n_components // 50
    # lanes [0, fast) draw by Floyd on 32-bit bounds and hash k as one word
    fast = 0 if tail or n_components > _MASK32 else max(0, min(count, 2**32 - k0))
    redraw = []
    if fast:
        words = [*(np.full(fast, word, dtype=np.uint32) for word in _words32(seed)),
                 np.arange(k0, k0 + fast, dtype=np.uint32)]
        # the bound [0, 0] takes no draw, and is the first step when N == b
        bounds = np.arange(max(first, 1), n_components, dtype=np.uint64) + 1
        scaled = _uint32_draws(_seed_state(words), len(bounds)) * bounds
        # Lemire's rejection, where numpy would draw again
        redraw = np.flatnonzero(((scaled & _MASK32) < 2**32 % bounds).any(axis=1)).tolist()
        values = (scaled >> 32).astype(np.int64)
        if first == 0:
            values = np.concatenate([np.zeros((fast, 1), dtype=np.int64), values], axis=1)
        picks[:fast] = _floyd(values, first)
    for i in [*redraw, *range(fast, count)]:
        picks[i] = sample_batch(seed, n_components, batch_size, k0 + i)
    return picks


def _words32(value):
    """``value``'s 32-bit words, least significant first, as SeedSequence reads an int."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_state(words):
    """``SeedSequence(words).generate_state(4, uint64)`` per lane of the uint32 word arrays."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # the uint32 words pair little-endian into uint64 words
    return [state[i] | state[i + 1] << 32 for i in range(0, 2 * _POOL, 2)]


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``(a_hi:a_lo) * (b_hi:b_lo) mod 2**128`` on uint64 halves."""
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    carry = a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    return carry + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


@functools.lru_cache(maxsize=16)
def _pcg_jumps(n_outputs):
    """uint64 halves of ``M**(t+1)`` and ``sum_{i<=t} M**i`` for t = 1..n_outputs."""
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(n_outputs):
        total = (total + power) % 2**128
        power = power * _PCG_MULT % 2**128
        powers.append(power)
        sums.append(total)
    halves = []
    for values in (powers, sums):
        halves.append(np.array([v >> 64 for v in values], dtype=np.uint64))
        halves.append(np.array([v & (2**64 - 1) for v in values], dtype=np.uint64))
    for half in halves:
        half.flags.writeable = False
    return tuple(halves)


def _uint32_draws(state, n_draws):
    """The first ``n_draws`` ``next_uint32`` values of each lane's seeded PCG64, as uint64.

    PCG64 seeds from ``state = (w0:w1, w2:w3)`` by two LCG steps from 0,
    with ``inc = (w2:w3 << 1) | 1`` and ``w0:w1`` added between them, so
    its t-th output state is ``M**(t+1) (inc + w0:w1) + sum_{i<=t} M**i inc``.
    Each 64-bit output gives its low half first, then its high half.
    """
    w0, w1, w2, w3 = (word[:, None] for word in state)
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    start_lo = inc_lo + w1
    start_hi = inc_hi + w0 + (start_lo < inc_lo)
    power_hi, power_lo, sum_hi, sum_lo = _pcg_jumps((n_draws + 1) // 2)
    a_hi, a_lo = _mul128(start_hi, start_lo, power_hi, power_lo)
    b_hi, b_lo = _mul128(inc_hi, inc_lo, sum_hi, sum_lo)
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < a_lo)
    # XSL-RR: the xor of the halves, rotated right by the top six bits
    rot = hi >> 58
    mixed = hi ^ lo
    out = (mixed >> rot) | (mixed << ((64 - rot) & 63))
    halves = np.stack([out & _MASK32, out >> 32], axis=2)
    return halves.reshape(len(out), -1)[:, :n_draws]


def _floyd(values, first):
    """Sorted Floyd picks: step t takes ``values[t]``, or ``j_t = first + t`` if already taken.

    Every earlier value is among the picks, taken or displaced by its own
    repeat, so value t repeats a pick when it repeats an earlier value, or
    when it is ``j_s`` for an earlier step s whose value repeated. That
    chain runs to ever earlier steps and is followed to its fixed point.
    """
    size = values.shape[1]
    steps = np.arange(size)
    # by value, then by step: an entry whose value equals its left neighbour's is a repeat
    keys = np.sort(values * size + steps, axis=1)
    rows, cols = np.nonzero(keys[:, 1:] // size == keys[:, :-1] // size)
    taken = np.zeros(values.shape, dtype=bool)
    taken[rows, keys[rows, cols + 1] % size] = True
    back = values - first
    link = np.where((back >= 0) & (back < steps), back, steps)
    while True:
        again = taken | np.take_along_axis(taken, link, axis=1)
        if np.array_equal(again, taken):
            break
        taken = again
    return np.sort(np.where(taken, first + steps, values), axis=1)


def default_period(n_components, batch_size):
    """One epoch worth of mini-batches between snapshots/restarts."""
    return -(-n_components // batch_size)


def _check_settings(n_components, batch_size, seed, period):
    _check_batch_size(n_components, batch_size)
    _check_seed(seed)
    if period is not None and period < 1:
        raise ValueError(f"period must be at least 1, got {period}")


class _EstimatorBase:
    kind = "abstract"

    def __init__(self, n_components, batch_size, seed, period=None):
        _check_settings(n_components, batch_size, seed, period)
        self.n_components = int(n_components)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.period = default_period(n_components, batch_size) if period is None else int(period)
        self._ready = False
        #: component-gradient evaluations consumed so far
        self.evals = 0
        self._block_start = 0
        self._block = np.empty((0, self.batch_size), dtype=np.int64)

    def sample_batch(self, k):
        """``sample_batch(seed, N, b, k)``, read off the cached block; a k outside it refills it."""
        row = k - self._block_start
        if not 0 <= row < len(self._block):
            self._block_start, row = k, 0
            self._block = sample_batches(self.seed, self.n_components, self.batch_size, k,
                                         max(1, BATCH_BLOCK_PICKS // self.batch_size))
        return self._block[row]

    def reset(self, component_grad, full_grad):
        """Bind the gradient oracles; the k = 0 estimate seeds the memory."""
        self.component_grad = component_grad
        self.full_grad = full_grad
        self.evals = 0
        self._ready = True
        return self

    def estimate(self, k, x):
        """The estimate of the mean gradient at x = x^k; updates the memory."""
        raise NotImplementedError

    def _corrected(self, batch, x):
        """(estimate, fresh rows, column sum of fresh - anchor rows) for ``batch`` at x.

        The estimate divides that one column sum by the batch size, which is
        the differences' ``mean(axis=0)`` bit for bit.
        """
        fresh = np.stack([self.component_grad(i, x) for i in batch])
        total = np.add.reduce(fresh - self._anchor_rows(batch), axis=0)
        return total / len(batch) + self.anchor_mean, fresh, total

    # memory pieces, implemented per kind
    def _anchor_at(self, x):
        """Seed the anchors, and ``anchor_mean``, at x."""
        raise NotImplementedError

    def _anchor_rows(self, batch):
        raise NotImplementedError

    def _check_start(self, k):
        if not self._ready:
            raise RuntimeError(f"{self.kind}: estimator not initialized; call reset")
        # every estimate charges evaluations, so none has run since reset
        if self.evals == 0 and k != 0:
            raise RuntimeError(f"{self.kind}: the first estimate after reset is at k = 0, not {k}")


class SagaEstimator(_EstimatorBase):
    kind = "saga"

    def _anchor_at(self, x):
        self.table = np.stack([self.component_grad(i, x) for i in range(self.n_components)])
        self.anchor_mean = self.table.mean(axis=0)

    def _anchor_rows(self, batch):
        return self.table[batch]

    def estimate(self, k, x):
        self._check_start(k)
        if k == 0:
            self._anchor_at(x)
            self.evals += self.n_components
        batch = self.sample_batch(k)
        estimate, fresh, total = self._corrected(batch, x)
        self.evals += len(batch)
        # incremental mean update keeps the invariant mean(table) == anchor_mean
        self.anchor_mean = self.anchor_mean + total / self.n_components
        self.table[batch] = fresh
        return estimate


class SvrgEstimator(_EstimatorBase):
    kind = "svrg"
    #: move the anchor to (x^k, v^k) after every step (SARAH)
    moving_anchor = False

    def _anchor_at(self, x):
        self.anchor_x = x.copy()
        self.anchor_mean = self.full_grad(self.anchor_x)

    def _anchor_rows(self, batch):
        return np.stack([self.component_grad(i, self.anchor_x) for i in batch])

    def estimate(self, k, x):
        self._check_start(k)
        x = np.asarray(x, dtype=float)
        if k % self.period == 0:
            self._anchor_at(x)
            self.evals += self.n_components
            estimate = self.anchor_mean.copy()
        else:
            estimate = self._corrected(self.sample_batch(k), x)[0]
            self.evals += 2 * self.batch_size
        if self.moving_anchor:
            self.anchor_x = x.copy()
            self.anchor_mean = estimate.copy()
        return estimate


class SarahEstimator(SvrgEstimator):
    kind = "sarah"
    moving_anchor = True


_KINDS = {
    "saga": SagaEstimator,
    "svrg": SvrgEstimator,
    "sarah": SarahEstimator,
}


def make_estimator(kind, n_components, batch_size, seed, period=None):
    """An estimator of ``kind``; "full" is SVRG with batch N and period 1.

    ``batch_size`` and ``period`` are range-checked for "full" too.
    """
    if kind == "full":
        _check_settings(n_components, batch_size, seed, period)
        return SvrgEstimator(n_components, n_components, seed, period=1)
    if kind not in _KINDS:
        raise ValueError(
            f"unknown estimator kind {kind!r}; pick from {sorted([*_KINDS, 'full'])}"
        )
    return _KINDS[kind](n_components, batch_size, seed, period=period)
