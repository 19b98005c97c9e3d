"""Belief-propagation decoding of decayed AES key schedules.

An expanded key schedule is massively redundant: of AES-256's 240
bytes only 32 are free, the rest pinned by ``w[i] = w[i-Nk] ^
T_i(w[i-1])``.  A schedule pulled from a decayed dump is therefore a
noisy codeword of a rate-~0.13 nonlinear code, and the question "what
was the key?" is a decoding problem — the framing of Zimerman et al.'s
deep cold-boot work, reproduced here with classical message passing
instead of a learned model.

The factor graph has one 256-state variable per schedule byte and one
check node per byte of every expansion equation (see
:func:`repro.crypto.aes.schedule_constraints`).  Each check is a
three-operand XOR constraint ``t ^ s ^ f(p) = 0`` where ``f`` is the
identity, the S-box, or S-box-plus-Rcon — always a byte bijection, so
messages cross it by a 256-entry permutation.  Check-to-variable
updates are XOR convolutions of the other two incoming messages,
computed via the Walsh–Hadamard transform (``WHT(a ⊛ b) = WHT(a) ·
WHT(b)`` over GF(2)^8); variable updates are batched log-domain sums.
Damping keeps the loopy iteration stable and a hard-decision syndrome
check exits early the moment every equation is satisfied.

The sweep engine is *residual-scheduled* in the Gauss–Seidel tradition
of LDPC decoding practice: most messages stop changing after a few
sweeps, so each sweep only recomputes the checks whose input
posteriors accumulated drift above ``RESIDUAL_TOL`` since that check
last ran.  Convergence is tracked per table — a table whose syndrome
hits zero (or that trips the stagnation abstain) is frozen and dropped
from the batched WHT kernels mid-run, so one call can carry a whole
candidate list and pay only for the tables still undecided.  Messages
are float32 (float64 remains the checkpoint format, which stores
float32 values exactly); the dense float64 decoder they replaced is
frozen in ``benchmarks/legacy_decode.py`` as the test oracle.

Channel priors come from the asymmetric ground-state decay model: DRAM
cells only leak *toward* their ground state, so the flip probability of
an observed bit depends on whether it currently sits at ground
(:class:`ChannelModel`).  When the posteriors do not converge the
decoder abstains with structured
:class:`~repro.resilience.errors.DecodeAbstainError` evidence instead
of hallucinating a key, and partial posteriors — including the
scheduling state — can be checkpointed and resumed bit-exactly across
a deadline (:class:`~repro.resilience.checkpoint.DecodeStateStore`).
"""

from __future__ import annotations

import base64
import hashlib
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.crypto.aes import SBOX, rounds_for, schedule_constraints
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceededError

#: Default cap on message-passing sweeps.  The graph's diameter is a
#: few dozen hops (information must cross the whole schedule), and on
#: decodable channels convergence lands well under this; the cap only
#: bounds the abstain path.
DEFAULT_DECODE_ITERS = 72

#: Default damping factor: each new check→variable message keeps this
#: fraction of its predecessor.  Loopy graphs with S-box checks
#: oscillate undamped; 0.2 is stable across the BER sweep without
#: noticeably slowing convergence.
DEFAULT_DAMPING = 0.2

#: Residual tolerance for check scheduling.  A check is only
#: recomputed once the message residuals that touched its variables
#: accumulate past this probability-domain drift.
RESIDUAL_TOL = 1e-3

#: Hopeless-table triage: after this many total sweeps, a fully
#: observed table whose best hard-decision syndrome still violates
#: more than half the checks freezes as an abstain instead of dribbling
#: toward the stagnation limit.  The populations are far apart: a
#: random table satisfies each check with probability 1/256 (syndrome
#: ≈ 0.996·n_checks, and loopy BP only ever polishes it down to
#: ~0.6·n_checks), while a decodable schedule falls below 0.15·n_checks
#: within two sweeps even past the code's BER horizon — the midpoint
#: sits more than ten standard deviations from either side.  Tables
#: with erased (un-``known``) bytes are exempt: a large erased span
#: legitimately holds its syndrome high until messages propagate
#: across it.
_HOPELESS_PROBE_SWEEPS = 2

#: Rows (dirty checks) processed per chunk inside a message sweep.
#: Each row carries a handful of (3, 256) float temporaries through
#: ~20 elementwise passes; chunking keeps that working set inside the
#: CPU cache instead of streaming the full batch through memory once
#: per pass.  Purely a blocking factor — results are identical for any
#: value.
_SWEEP_CHUNK = 128

#: Flip rates are clamped to this interval before becoming priors: a
#: zero rate would make every observed bit infinitely trusted (one
#: contradicted observation then deadlocks the whole graph) and a rate
#: at or above 0.5 inverts the channel.
RATE_FLOOR = 1e-6
RATE_CEIL = 0.499


def clamp_rate(rate: float) -> float:
    """Clamp a flip rate into ``[RATE_FLOOR, RATE_CEIL]``."""
    return min(RATE_CEIL, max(RATE_FLOOR, float(rate)))


@dataclass(frozen=True)
class ChannelModel:
    """Per-bit decay channel with ground-state asymmetry.

    Cells leak toward their ground state only (§III-D), so the two
    directions of the binary channel differ: ``rate_to_ground`` is the
    probability a bit stored *opposite* ground has flipped by dump
    time, ``rate_from_ground`` the (physically near-zero) reverse.
    ``ground`` optionally carries the module's per-byte ground-state
    pattern over the schedule region; ``None`` models ground zero.
    A symmetric channel — the right model when the scrambler has
    whitened ground-state knowledge away — uses equal rates.
    """

    rate_to_ground: float
    rate_from_ground: float
    ground: bytes | None = None

    def __post_init__(self) -> None:
        for rate in (self.rate_to_ground, self.rate_from_ground):
            if not 0.0 <= rate <= 0.5:
                raise ValueError("channel rates must lie in [0, 0.5]")

    @classmethod
    def symmetric(cls, rate: float) -> "ChannelModel":
        """Direction-free channel at the given (clamped) flip rate."""
        clamped = clamp_rate(rate)
        return cls(rate_to_ground=clamped, rate_from_ground=clamped)

    def flip_probabilities(self, n_bytes: int) -> tuple[np.ndarray, np.ndarray]:
        """Posterior flip probability per bit, split by observed state.

        Returns ``(p_at_ground, p_off_ground)`` as ``(n_bytes, 8)``
        float64 arrays: the probability the *true* bit differs from the
        observed one given the observation sits at / off the ground
        state (uniform prior on the true bit).
        """
        r_to = clamp_rate(self.rate_to_ground)
        r_from = clamp_rate(self.rate_from_ground)
        p_at = clamp_rate(r_to / ((1.0 - r_from) + r_to))
        p_off = clamp_rate(r_from / ((1.0 - r_to) + r_from))
        return (
            np.full((n_bytes, 8), p_at, dtype=np.float64),
            np.full((n_bytes, 8), p_off, dtype=np.float64),
        )

    def ground_bits(self, n_bytes: int) -> np.ndarray:
        """The ground-state pattern as an ``(n_bytes, 8)`` bit matrix."""
        if self.ground is None:
            return np.zeros((n_bytes, 8), dtype=np.uint8)
        pattern = np.frombuffer(self.ground, dtype=np.uint8)
        if pattern.size < n_bytes:
            pattern = np.resize(pattern, n_bytes)
        return np.unpackbits(pattern[:n_bytes]).reshape(n_bytes, 8)


# --------------------------------------------------------------------------
# Constraint graph


@dataclass(frozen=True)
class ConstraintGraph:
    """Vectorized check-node tables for one AES variant's schedule code.

    One check per byte of every expansion equation; arrays are indexed
    by check.  ``fwd_lut[c]`` maps the prev-operand's byte value into
    the check's XOR domain (identity / S-box / S-box ⊕ Rcon) and
    ``inv_lut`` is its inverse — both exist because every expansion
    transform is a byte bijection.  ``var_in_edges`` lists, per
    variable, the flat edge ids (``3·check + slot``) it touches, padded
    with ``n_edges`` (a dummy edge carrying a unit message).
    ``check_vars`` stacks the t/s/p variables per check, and
    ``fwd_take``/``inv_take`` are the permutations again as intp, the
    gather index dtype, so sweeps never re-cast the uint8 tables.
    """

    key_bits: int
    n_vars: int
    n_checks: int
    t_idx: np.ndarray
    s_idx: np.ndarray
    p_idx: np.ndarray
    fwd_lut: np.ndarray
    inv_lut: np.ndarray
    edge_var: np.ndarray
    var_in_edges: np.ndarray
    check_vars: np.ndarray
    fwd_take: np.ndarray
    inv_take: np.ndarray

    @property
    def n_edges(self) -> int:
        return 3 * self.n_checks


_GRAPH_CACHE: dict[int, ConstraintGraph] = {}


def build_constraint_graph(key_bits: int) -> ConstraintGraph:
    """Build (and cache) the schedule constraint graph for a variant."""
    cached = _GRAPH_CACHE.get(key_bits)
    if cached is not None:
        return cached
    constraints = schedule_constraints(key_bits)
    nk = {128: 4, 192: 6, 256: 8}[key_bits]
    n_vars = 16 * (rounds_for(key_bits) + 1)
    identity = np.arange(256, dtype=np.uint8)
    t_list: list[int] = []
    s_list: list[int] = []
    p_list: list[int] = []
    fwd_rows: list[np.ndarray] = []
    for i, kind, rcon in constraints:
        for b in range(4):
            t_list.append(4 * i + b)
            s_list.append(4 * (i - nk) + b)
            if kind == "rot":
                # RotWord: target byte b reads source byte (b+1) mod 4;
                # Rcon lands on the word's leading byte only.
                p_list.append(4 * (i - 1) + (b + 1) % 4)
                fwd_rows.append(SBOX ^ (rcon if b == 0 else 0))
            elif kind == "sub":
                p_list.append(4 * (i - 1) + b)
                fwd_rows.append(SBOX.copy())
            else:
                p_list.append(4 * (i - 1) + b)
                fwd_rows.append(identity.copy())
    n_checks = len(t_list)
    fwd_lut = np.ascontiguousarray(np.stack(fwd_rows), dtype=np.uint8)
    inv_lut = np.empty_like(fwd_lut)
    rows = np.arange(n_checks)[:, None]
    inv_lut[rows, fwd_lut.astype(np.intp)] = identity[None, :]
    t_idx = np.asarray(t_list, dtype=np.intp)
    s_idx = np.asarray(s_list, dtype=np.intp)
    p_idx = np.asarray(p_list, dtype=np.intp)
    check_vars = np.stack([t_idx, s_idx, p_idx], axis=1)
    edge_var = check_vars.reshape(-1)
    n_edges = 3 * n_checks
    var_in_edges = np.full((n_vars, 3), n_edges, dtype=np.intp)
    fill = np.zeros(n_vars, dtype=np.intp)
    for edge, var in enumerate(edge_var):
        var_in_edges[var, fill[var]] = edge
        fill[var] += 1
    fwd_take = fwd_lut.astype(np.intp)
    inv_take = inv_lut.astype(np.intp)
    for array in (
        t_idx, s_idx, p_idx, fwd_lut, inv_lut, edge_var, var_in_edges,
        check_vars, fwd_take, inv_take,
    ):
        array.setflags(write=False)
    graph = ConstraintGraph(
        key_bits=key_bits,
        n_vars=n_vars,
        n_checks=n_checks,
        t_idx=t_idx,
        s_idx=s_idx,
        p_idx=p_idx,
        fwd_lut=fwd_lut,
        inv_lut=inv_lut,
        edge_var=edge_var,
        var_in_edges=var_in_edges,
        check_vars=check_vars,
        fwd_take=fwd_take,
        inv_take=inv_take,
    )
    _GRAPH_CACHE[key_bits] = graph
    return graph


def schedule_plausibility(
    table: np.ndarray, known: np.ndarray | None, key_bits: int
) -> int:
    """Count fully-observed, satisfied expansion checks in a raw table.

    The cheap junk gate ahead of a full decode: a true schedule at
    channel rate ``b`` keeps about ``n_checks·(1-b)^24`` of its byte
    checks intact (a check spans three bytes, clean only when none of
    the 24 bits flipped), while random bytes satisfy ``n_checks/256``
    by luck — populations separated by an order of magnitude at every
    rate the decoder can actually correct.  Checks touching a byte
    outside ``known`` are not counted.
    """
    graph = build_constraint_graph(key_bits)
    table = np.asarray(table, dtype=np.uint8)
    rows = np.arange(graph.n_checks)
    clean = (
        table[graph.t_idx]
        ^ table[graph.s_idx]
        ^ graph.fwd_lut[rows, table[graph.p_idx]]
    ) == 0
    if known is not None:
        mask = np.asarray(known, dtype=bool)
        clean &= mask[graph.t_idx] & mask[graph.s_idx] & mask[graph.p_idx]
    return int(clean.sum())


def block_key_plausibility(
    slices: np.ndarray, slice_start: int, key_bits: int
) -> np.ndarray:
    """Score candidate descramblings of one block's slice of a table.

    ``slices`` is ``(n_candidates, slice_len)`` — typically one row per
    candidate scrambler key, each the block's bytes XOR that key — and
    ``slice_start`` is where the slice begins inside the schedule.
    Returns per-candidate counts of satisfied checks whose three bytes
    all fall inside the slice.

    This is the guess-free form of the plausibility gate: a 64-byte
    slice of an AES-256 schedule contains ~32 self-contained byte
    checks, so the block's true key scores ``~32·(1-b)^24`` while a
    wrong key's pseudorandom bytes score ``~32/256`` — enough to pick
    each block's key straight out of the mined pool with *no* prior
    guess of the table's contents, which is exactly what the decoder
    needs when the block's own windows decayed past every verify
    budget.
    """
    graph = build_constraint_graph(key_bits)
    slices = np.ascontiguousarray(np.atleast_2d(slices), dtype=np.uint8)
    lo = int(slice_start)
    hi = lo + slices.shape[1]
    inside = (
        (graph.t_idx >= lo)
        & (graph.t_idx < hi)
        & (graph.s_idx >= lo)
        & (graph.s_idx < hi)
        & (graph.p_idx >= lo)
        & (graph.p_idx < hi)
    )
    rows = np.nonzero(inside)[0]
    if rows.size == 0:
        return np.zeros(slices.shape[0], dtype=np.int64)
    t = graph.t_idx[rows] - lo
    s = graph.s_idx[rows] - lo
    p = graph.p_idx[rows] - lo
    clean = (
        slices[:, t] ^ slices[:, s] ^ graph.fwd_lut[rows[None, :], slices[:, p]]
    ) == 0
    return clean.sum(axis=1, dtype=np.int64)


def _hadamard(n: int) -> np.ndarray:
    """The ±1 Sylvester–Hadamard matrix of order ``n`` (a power of 2)."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


#: H256 = H16 ⊗ H16, so a length-256 WHT is two 16×16 matmuls on a
#: reshaped (…, 16, 16) view — contiguous BLAS kernels, ~20× faster
#: than strided butterflies on large batches.
_H16 = np.ascontiguousarray(_hadamard(16), dtype=np.float32)


def _wht(values: np.ndarray) -> np.ndarray:
    """Walsh–Hadamard transform along the last (256-long) axis."""
    shape = values.shape
    folded = values.reshape(-1, 16, 16)
    return np.matmul(_H16, folded @ _H16).reshape(shape)


_VALUE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)


_PRIOR_LUT_CACHE: dict[tuple[float, float, int], np.ndarray] = {}


def _prior_lut(channel: ChannelModel, ground_byte: int) -> np.ndarray:
    """``(256 observed, 256 candidate)`` log-likelihood table.

    The per-bit flip probabilities depend only on whether the observed
    bit sits at ground, so a byte's 256-state prior is a function of
    (observed byte, ground byte) alone.  The table is built with the
    same per-bit match/``log``/``sum`` expression the decoder has
    always used — identical values in identical summation order — so
    gathering from it is bit-for-bit the direct computation.
    """
    key = (channel.rate_to_ground, channel.rate_from_ground, ground_byte)
    cached = _PRIOR_LUT_CACHE.get(key)
    if cached is not None:
        return cached
    obs_bits = _VALUE_BITS  # (256 observed, 8)
    ground_bits = np.unpackbits(np.full(1, ground_byte, dtype=np.uint8))
    p_at, p_off = channel.flip_probabilities(1)
    p_flip = np.where(obs_bits == ground_bits[None, :], p_at[0], p_off[0])
    match = _VALUE_BITS[None, :, :] == obs_bits[:, None, :]
    lut = np.where(
        match, np.log1p(-p_flip)[:, None, :], np.log(p_flip)[:, None, :]
    ).sum(axis=-1)
    lut.setflags(write=False)
    _PRIOR_LUT_CACHE[key] = lut
    return lut


def byte_priors(
    observed: np.ndarray,
    channel: ChannelModel,
    known: np.ndarray | None = None,
) -> np.ndarray:
    """Log-domain 256-state priors for every observed schedule byte.

    ``observed`` is ``(..., n_bytes)`` uint8; the result appends a
    256-long axis of unnormalised log probabilities, the product of
    each bit's channel likelihood.  Bytes where ``known`` is False get
    a flat prior — the graph alone must reconstruct them.
    """
    observed = np.asarray(observed, dtype=np.uint8)
    n_bytes = observed.shape[-1]
    if channel.ground is None:
        prior_log = _prior_lut(channel, 0)[observed]
    else:
        pattern = np.frombuffer(channel.ground, dtype=np.uint8)
        if pattern.size < n_bytes:
            pattern = np.resize(pattern, n_bytes)
        pattern = pattern[:n_bytes]
        values, g_idx = np.unique(pattern, return_inverse=True)
        luts = np.stack([_prior_lut(channel, int(value)) for value in values])
        prior_log = luts[g_idx, observed]
    if known is not None:
        prior_log = np.where(np.asarray(known, dtype=bool)[..., None], prior_log, 0.0)
    return prior_log


# --------------------------------------------------------------------------
# The decoder


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text)


@dataclass
class DecodeState:
    """Resumable snapshot of an in-flight decode (bit-exact messages).

    ``sched`` carries the scheduling/abstain bookkeeping of the
    residual-scheduled engine — frozen masks, dirty checks, accumulated
    drift, per-table stall counters — so a resumed run continues the
    exact trajectory an uninterrupted run would have taken.  States
    written before the scheduler existed load with ``sched=None`` and
    restart conservatively with every check dirty.
    """

    iteration: int
    messages: np.ndarray  # (batch, n_checks, 3, 256) float64 check→var messages
    digest: str  # context digest the state belongs to
    sched: dict | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-ready form with a CRC over the raw message bytes."""
        raw = np.ascontiguousarray(self.messages, dtype=np.float64).tobytes()
        data = {
            "iteration": int(self.iteration),
            "shape": list(self.messages.shape),
            "messages_b64": _b64(raw),
            "crc32": zlib.crc32(raw) & 0xFFFFFFFF,
            "digest": self.digest,
        }
        if self.sched is not None:
            data["sched"] = dict(self.sched)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DecodeState | None":
        """Reconstruct a state; returns None on any damage."""
        try:
            raw = _unb64(data["messages_b64"])
            if (zlib.crc32(raw) & 0xFFFFFFFF) != int(data["crc32"]):
                return None
            messages = np.frombuffer(raw, dtype=np.float64).reshape(data["shape"]).copy()
            sched = data.get("sched")
            return cls(
                iteration=int(data["iteration"]),
                messages=messages,
                digest=str(data["digest"]),
                sched=dict(sched) if isinstance(sched, dict) else None,
            )
        except (KeyError, ValueError, TypeError):
            return None


@dataclass
class DecodeResult:
    """Outcome of one belief-propagation decode over a table batch."""

    #: Hard-decided schedule bytes, shape ``(batch, n_bytes)``.
    tables: np.ndarray
    #: Per-table convergence: the syndrome reached zero.
    converged: np.ndarray
    #: Message-passing sweeps actually run.
    iterations: int
    #: Per-table residual syndrome weight (violated checks).
    syndrome_weight: np.ndarray
    #: Per-table mean posterior entropy, bits per byte (0 = certain).
    posterior_entropy: np.ndarray
    #: Per-table mean max-posterior probability — the certainty the
    #: confidence machinery is recalibrated from.
    certainty: np.ndarray
    #: Per-table sweeps until that table froze (converged / stalled);
    #: ``None`` only for results built by very old callers.
    table_iterations: np.ndarray | None = None
    #: Check-message updates actually computed vs what a dense sweep
    #: schedule would have computed — the active-set/residual savings.
    checks_updated: int = 0
    checks_dense: int = 0

    def abstained(self, index: int = 0) -> bool:
        """Whether table ``index`` failed to converge (abstain path)."""
        return not bool(self.converged[index])

    def table(self, index: int) -> "DecodeResult":
        """A one-table view of a batched result (shared arrays)."""
        titers = self.table_iterations
        return DecodeResult(
            tables=self.tables[index : index + 1],
            converged=self.converged[index : index + 1],
            iterations=(
                int(titers[index]) if titers is not None else self.iterations
            ),
            syndrome_weight=self.syndrome_weight[index : index + 1],
            posterior_entropy=self.posterior_entropy[index : index + 1],
            certainty=self.certainty[index : index + 1],
            table_iterations=(
                titers[index : index + 1] if titers is not None else None
            ),
        )


def context_digest(
    observed: np.ndarray,
    known: np.ndarray | None,
    channel: ChannelModel,
    key_bits: int,
    damping: float,
) -> str:
    """Digest pinning a decode context, so resumed state can't be
    replayed against a different table, channel, or tuning."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(observed, dtype=np.uint8).tobytes())
    if known is not None:
        h.update(np.packbits(np.asarray(known, dtype=bool)).tobytes())
    h.update(
        f"{key_bits}:{channel.rate_to_ground:.9f}:{channel.rate_from_ground:.9f}"
        f":{damping:.6f}".encode()
    )
    if channel.ground is not None:
        h.update(channel.ground)
    return h.hexdigest()


class _SweepSchedule:
    """Per-table freeze masks + residual-driven dirty-check tracking.

    All state is per-table (nothing couples tables), which is what
    makes a batched decode byte-identical to running each table alone:
    batching is purely a kernel-shape optimisation.
    """

    def __init__(self, batch: int, n_checks: int) -> None:
        self.frozen = np.zeros(batch, dtype=bool)
        self.converged = np.zeros(batch, dtype=bool)
        self.dirty = np.ones((batch, n_checks), dtype=bool)
        self.pending = np.zeros((batch, n_checks), dtype=np.float32)
        self.best_syndrome = np.full(batch, np.iinfo(np.int64).max, dtype=np.int64)
        self.stagnant = np.zeros(batch, dtype=np.int64)
        self.table_iterations = np.zeros(batch, dtype=np.int64)

    def to_dict(self) -> dict:
        return {
            "frozen_b64": _b64(np.packbits(self.frozen).tobytes()),
            "converged_b64": _b64(np.packbits(self.converged).tobytes()),
            "dirty_b64": _b64(np.packbits(self.dirty).tobytes()),
            "pending_b64": _b64(self.pending.astype("<f4").tobytes()),
            "best": [int(v) for v in self.best_syndrome],
            "stagnant": [int(v) for v in self.stagnant],
            "titers": [int(v) for v in self.table_iterations],
        }

    @classmethod
    def from_dict(cls, data: dict, batch: int, n_checks: int) -> "_SweepSchedule":
        sched = cls(batch, n_checks)
        sched.frozen = (
            np.unpackbits(np.frombuffer(_unb64(data["frozen_b64"]), dtype=np.uint8))[
                :batch
            ].astype(bool)
        )
        sched.converged = (
            np.unpackbits(
                np.frombuffer(_unb64(data["converged_b64"]), dtype=np.uint8)
            )[:batch].astype(bool)
        )
        sched.dirty = (
            np.unpackbits(np.frombuffer(_unb64(data["dirty_b64"]), dtype=np.uint8))[
                : batch * n_checks
            ]
            .astype(bool)
            .reshape(batch, n_checks)
        )
        sched.pending = (
            np.frombuffer(_unb64(data["pending_b64"]), dtype="<f4")
            .reshape(batch, n_checks)
            .astype(np.float32)
        )
        sched.best_syndrome = np.asarray(data["best"], dtype=np.int64)
        sched.stagnant = np.asarray(data["stagnant"], dtype=np.int64)
        sched.table_iterations = np.asarray(data["titers"], dtype=np.int64)
        if (
            sched.best_syndrome.shape != (batch,)
            or sched.stagnant.shape != (batch,)
            or sched.table_iterations.shape != (batch,)
        ):
            raise ValueError("scheduling state shape mismatch")
        return sched


def decode_schedule(
    observed: np.ndarray,
    key_bits: int,
    channel: ChannelModel,
    known: np.ndarray | None = None,
    max_iters: int = DEFAULT_DECODE_ITERS,
    damping: float = DEFAULT_DAMPING,
    on_progress=None,
    deadline: "Deadline | float | None" = None,
    state: DecodeState | None = None,
    beat_every: int = 4,
    stall_sweeps: int = 8,
) -> DecodeResult:
    """Sum-product decode of one observed schedule table or a batch.

    ``observed`` is ``(batch, n_bytes)`` (or ``(n_bytes,)``) uint8 —
    every candidate schedule decodes in one set of batched kernels.
    Convergence, stagnation, and check scheduling are all tracked *per
    table*: a table whose syndrome hits zero (or that stalls for
    ``stall_sweeps``) is frozen and leaves the batched kernels, so a
    batched call returns byte-identical results to decoding each table
    alone while paying only for the tables still in play.  Within a
    table, only checks whose input variables accumulated message drift
    above ``RESIDUAL_TOL`` are recomputed each sweep (Gauss–Seidel /
    residual scheduling); a table with no dirty checks left can never
    change again and freezes immediately.

    ``on_progress`` (zero-arg) is invoked every ``beat_every`` sweeps —
    the watchdog heartbeat hook, so a long decode is never mistaken
    for a stalled worker.  An expired ``deadline`` raises
    :class:`~repro.resilience.errors.DeadlineExceededError` with the
    partial messages (and scheduling state) attached as
    ``error.decode_state`` for checkpointing; passing that state back
    in resumes bit-exactly.

    ``stall_sweeps`` is the stagnation abstain: a decodable table's
    syndrome weight falls steadily sweep over sweep, while an
    undecodable one (junk past the verify gate, decay beyond the
    code's horizon) oscillates around its floor — that many sweeps
    without a new minimum and the table freezes as an abstain rather
    than burning the full ``max_iters`` (unless it is already within a
    handful of violated checks of a codeword, where oscillation
    usually resolves and the dirty set is tiny anyway).  Fully
    observed tables get a
    cheaper exit first: one whose best syndrome still violates more
    than half the checks after ``_HOPELESS_PROBE_SWEEPS`` sweeps is
    statistically certain to be junk (see the constant's rationale)
    and abstains immediately instead of feeding the stagnation
    counter.  Setting ``stall_sweeps=0`` disables both abstains.

    Messages run in float32 (checkpoints always store float64, which
    represents every float32 exactly, so interrupt/resume stays
    bit-exact).
    """
    graph = build_constraint_graph(key_bits)
    observed = np.asarray(observed, dtype=np.uint8)
    if observed.ndim == 1:
        observed = observed[None, :]
        if known is not None:
            known = np.asarray(known, dtype=bool)[None, :]
    if observed.shape[-1] != graph.n_vars:
        raise ValueError(
            f"expected {graph.n_vars}-byte tables for AES-{key_bits}, "
            f"got {observed.shape[-1]}"
        )
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    deadline = Deadline.coerce(deadline)
    batch = observed.shape[0]
    digest = context_digest(observed, known, channel, key_bits, damping)

    n_vars = graph.n_vars
    n_checks, n_edges = graph.n_checks, graph.n_edges
    # Probability floor before the log: float32 needs a normal floor so
    # the log stays finite.
    tiny = float(np.finfo(np.float32).tiny)

    prior_log = byte_priors(observed, channel, known).astype(np.float32)  # (B, V, 256)
    # Messages live *only* in the log domain: probability-domain values
    # are re-derived by exponentiating the already-gathered logs inside
    # each sweep chunk.  They sit in flat-edge layout with a trailing
    # zero dummy row, so a variable's posterior is prior + a 3-way
    # padded gather-sum.
    cv_log_pad = np.zeros((batch, n_edges + 1, 256), dtype=np.float32)
    if (
        state is not None
        and state.digest == digest
        and state.messages.shape == (batch, n_checks, 3, 256)
    ):
        messages = state.messages.astype(np.float32)
        cv_log_pad[:, :n_edges, :] = np.log(messages).reshape(batch, n_edges, 256)
        start_iteration = int(state.iteration)
        sched = None
        if state.sched is not None:
            try:
                sched = _SweepSchedule.from_dict(state.sched, batch, n_checks)
            except (KeyError, ValueError, TypeError):
                sched = None
        if sched is None:
            sched = _SweepSchedule(batch, n_checks)
    else:
        cv_log_pad[:, :n_edges, :] = np.log(np.float64(1.0) / 256.0)
        start_iteration = 0
        sched = _SweepSchedule(batch, n_checks)
    clp_flat = cv_log_pad.reshape(batch * (n_edges + 1), 256)

    # The edge gather leaves advanced-index-first strides on its
    # output; adding through ``out=`` pins the posterior buffer
    # C-contiguous so ``post_flat`` below is a true view of it.
    posterior_log = np.empty_like(prior_log)
    np.add(
        prior_log,
        cv_log_pad[:, graph.var_in_edges, :].sum(axis=2),
        out=posterior_log,
    )
    post_flat = posterior_log.reshape(batch * n_vars, 256)
    hard = posterior_log.argmax(axis=2).astype(np.uint8)

    rows = np.arange(n_checks)
    syndrome_weight = np.full(batch, n_checks, dtype=np.int64)
    # Hopeless triage applies only to fully observed tables — erased
    # spans hold the syndrome high for honest reasons (see
    # ``_HOPELESS_PROBE_SWEEPS``).
    fully_known = (
        np.ones(batch, dtype=bool)
        if known is None
        else np.asarray(known, dtype=bool).all(axis=1)
    )
    iterations = start_iteration
    checks_updated = 0
    checks_dense = 0
    slot = np.arange(3, dtype=np.intp)
    # Flat offsets of each chunk row's slot-2 vector inside a
    # contiguous (chunk, 3, 256) buffer — the prev-operand permutations
    # are applied as flat gathers, which beat ``take_along_axis``.
    slot2_base = np.arange(_SWEEP_CHUNK, dtype=np.intp)[:, None] * 768 + 512

    def syndrome_of(tables: np.ndarray) -> np.ndarray:
        t = tables[:, graph.t_idx]
        s = tables[:, graph.s_idx]
        p = tables[:, graph.p_idx]
        residue = t ^ s ^ graph.fwd_lut[rows[None, :], p]
        return (residue != 0).sum(axis=1)

    def snapshot_state(iteration: int) -> DecodeState:
        # Re-exponentiate the log-domain messages.  The exp/log
        # round-trip through float64 recovers every float32 log
        # exactly, so resuming from the snapshot is bit-exact.
        messages = np.exp(cv_log_pad[:, :n_edges, :].astype(np.float64)).reshape(
            batch, n_checks, 3, 256
        )
        return DecodeState(
            iteration=iteration,
            messages=messages,
            digest=digest,
            sched=sched.to_dict(),
        )

    for iteration in range(start_iteration, max_iters):
        active = np.flatnonzero(~sched.frozen)
        if active.size == 0:
            break
        # Hard-decision syndrome for the tables still in play.
        syn = syndrome_of(hard[active])
        syndrome_weight[active] = syn
        now_converged = syn == 0
        if now_converged.any():
            done = active[now_converged]
            sched.converged[done] = True
            sched.frozen[done] = True
            sched.dirty[done] = False
            sched.table_iterations[done] = iteration
        # Stagnation abstain, per table: that many sweeps without a new
        # syndrome minimum and the table freezes rather than burning
        # the full iteration budget to reach the same abstain.
        live = active[~now_converged]
        if live.size:
            improved = syndrome_weight[live] < sched.best_syndrome[live]
            sched.best_syndrome[live] = np.minimum(
                sched.best_syndrome[live], syndrome_weight[live]
            )
            sched.stagnant[live] = np.where(improved, 0, sched.stagnant[live] + 1)
            stalled = np.zeros(live.size, dtype=bool)
            if stall_sweeps:
                # Stagnation only abstains tables still far from a
                # codeword: one oscillating within a handful of violated
                # checks is circling a fixpoint it usually reaches, and
                # its dirty set is tiny — let it spend the budget.
                near = sched.best_syndrome[live] * 32 <= n_checks
                stalled |= (sched.stagnant[live] >= stall_sweeps) & ~near
                # Hopeless triage: still violating the majority of
                # checks after the probe sweeps means junk, not a slow
                # decode — abstain now rather than dribble toward the
                # stagnation limit one syndrome point at a time.
                if iteration >= _HOPELESS_PROBE_SWEEPS:
                    stalled |= fully_known[live] & (
                        sched.best_syndrome[live] * 2 > n_checks
                    )
            # A table with no dirty checks has reached a message
            # fixpoint — nothing can change it, so freeze it now.
            stalled |= ~sched.dirty[live].any(axis=1)
            if stalled.any():
                halt = live[stalled]
                sched.frozen[halt] = True
                sched.dirty[halt] = False
                sched.table_iterations[halt] = iteration
        if sched.frozen.all():
            break
        if deadline is not None and deadline.expired:
            error = DeadlineExceededError(
                deadline.total_seconds, context=f"schedule decode sweep {iteration}"
            )
            error.decode_state = snapshot_state(iteration)  # type: ignore[attr-defined]
            raise error
        if on_progress is not None and iteration % max(1, beat_every) == 0:
            on_progress()

        # ---- one residual-scheduled message sweep -------------------
        sel_t, sel_c = np.nonzero(sched.dirty)
        m = sel_t.size
        checks_updated += int(m)
        checks_dense += int((~sched.frozen).sum()) * n_checks
        flat_v = sel_t[:, None] * n_vars + graph.check_vars[sel_c]  # (M, 3)
        flat_e = (
            sel_t[:, None] * (n_edges + 1) + (3 * sel_c)[:, None] + slot[None, :]
        )  # (M, 3)
        residual = np.empty(m, dtype=np.float32)  # (M,)
        # The sweep walks the dirty checks in cache-sized chunks: every
        # op below is row-independent, so chunking changes nothing but
        # keeps the ~20 passes over the chunk temporaries in L2 instead
        # of streaming multi-MB arrays through memory once per op.
        for lo in range(0, m, _SWEEP_CHUNK):
            hi = min(m, lo + _SWEEP_CHUNK)
            cc = sel_c[lo:hi]
            cfv, cfe = flat_v[lo:hi], flat_e[lo:hi]
            # BP messages are scale-invariant (any per-message factor
            # becomes an additive posterior constant that the max-shift
            # removes), so the sweep skips every cosmetic normalisation,
            # folds the damping factor into the one scale it does apply,
            # and re-derives the old probability messages from the logs
            # it already gathered instead of keeping a second array.
            g = clp_flat[cfe]  # (chunk, 3, 256) log old messages
            # Variable→check messages: posterior, own edge divided out.
            vc = post_flat[cfv]
            vc -= g
            vc -= vc.max(axis=-1, keepdims=True)
            np.exp(vc, out=vc)
            # Prev operand enters the XOR in its transformed domain.
            bidx = slot2_base[: hi - lo]
            vc[:, 2, :] = vc.ravel()[bidx + graph.inv_take[cc]]
            w = _wht(vc.reshape(-1, 256)).reshape(-1, 3, 256)
            prods = np.empty_like(w)
            # XOR convolution: pointwise product in the WHT domain.
            np.multiply(w[:, 1], w[:, 2], out=prods[:, 0])
            np.multiply(w[:, 0], w[:, 2], out=prods[:, 1])
            np.multiply(w[:, 0], w[:, 1], out=prods[:, 2])
            fresh = _wht(prods.reshape(-1, 256)).reshape(-1, 3, 256)
            fresh[:, 2, :] = fresh.ravel()[bidx + graph.fwd_take[cc]]
            np.clip(fresh, tiny, None, out=fresh)
            fresh *= (1.0 - damping) / fresh.sum(axis=-1, keepdims=True)
            old = np.exp(g, out=g)
            fresh += np.multiply(old, damping, out=prods)
            np.subtract(old, fresh, out=old)
            np.abs(old, out=old)
            residual[lo:hi] = old.max(axis=(1, 2))
            np.log(fresh, out=fresh)
            clp_flat[cfe.ravel()] = fresh.reshape((hi - lo) * 3, 256)
        # Refresh posteriors + hard decisions of the touched tables.
        # (Vars whose checks all rested keep their values — their edge
        # messages are unchanged, so recomputing them is a no-op.)
        upd = np.unique(sel_t)
        sub = cv_log_pad[
            upd[:, None, None], graph.var_in_edges[None, :, :], :
        ].sum(axis=2)
        posterior_log[upd] = prior_log[upd] + sub
        hard[upd] = posterior_log[upd].argmax(axis=2).astype(np.uint8)
        # Residual scheduling: a check re-runs once the message drift
        # that reached its variables accumulates past the tolerance.
        # Each variable feeds at most one check per slot, so the
        # scatter-max decomposes into three unique-index maximums.
        perturb = np.zeros(batch * n_vars, dtype=np.float32)
        for k in range(3):
            idx = flat_v[:, k]
            perturb[idx] = np.maximum(perturb[idx], residual)
        sched.pending[sel_t, sel_c] = 0.0
        act = np.flatnonzero(~sched.frozen)
        sched.pending[act] += perturb.reshape(batch, n_vars)[act][
            :, graph.check_vars
        ].max(axis=2)
        sched.dirty[act] = sched.pending[act] > RESIDUAL_TOL
        iterations = iteration + 1

    never_frozen = ~sched.frozen
    if never_frozen.any():
        sched.table_iterations[never_frozen] = iterations
    # Tables frozen before a resume never re-enter the loop; recompute
    # everyone's syndrome from the returned hard decisions so the
    # weights are consistent with ``tables`` regardless of history.
    syndrome_weight = syndrome_of(hard).astype(np.int64)

    shifted = posterior_log - posterior_log.max(axis=-1, keepdims=True)
    posterior = np.exp(shifted)
    posterior /= posterior.sum(axis=-1, keepdims=True)
    entropy = -(posterior * np.log2(np.clip(posterior, tiny, None))).sum(axis=-1)
    return DecodeResult(
        tables=hard,
        converged=sched.converged.copy(),
        iterations=iterations,
        syndrome_weight=syndrome_weight.astype(np.int64),
        posterior_entropy=entropy.mean(axis=-1, dtype=np.float64),
        certainty=posterior.max(axis=-1).mean(axis=-1, dtype=np.float64),
        table_iterations=sched.table_iterations.copy(),
        checks_updated=checks_updated,
        checks_dense=checks_dense,
    )
