"""The belief-propagation decoders of earlier releases, frozen in time.

:func:`legacy_decode_schedules` restores the decode hot path exactly as
it shipped before the residual-scheduled rewrite: one dense sweep over
*every* check of *every* table per iteration, per-level copying
Walsh–Hadamard butterflies, float64 messages, full posterior recompute
each sweep, and batch-total (not per-table) stagnation tracking — the
code that spent 69.9 s in the decoded rung at BER 0.024.

Keeping the old code importable (rather than checking out an old
commit) lets ``benchmarks/decode_harness.py`` measure the speedup *and*
assert identical recovered tables and identical abstain decisions in a
single process, on identical inputs.  Only the structural pieces whose
semantics are pinned by their own tests (the constraint graph, the
channel priors, the checkpoint format) are imported from the live
module.

:func:`serial_decode_schedule` is the residual-scheduled float32
decoder as it ran before each sweep's dirty-check chunks and the
posterior refresh moved onto a per-call thread pool: every chunk in
turn on the calling thread.  The pool changes no arithmetic, so
``tests/attack/test_oracle_differential.py`` holds the live decoder to
it bit for bit, every :class:`DecodeResult` field and every checkpoint.
"""

from __future__ import annotations

import math

import numpy as np

from repro.attack.decode import (
    DEFAULT_DAMPING,
    DEFAULT_DECODE_ITERS,
    ChannelModel,
    DecodeResult,
    DecodeState,
    _SweepSchedule,
    build_constraint_graph,
    byte_priors,
    context_digest,
)
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceededError

_LEGACY_VALUE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)


def _legacy_byte_priors(
    observed: np.ndarray,
    channel: ChannelModel,
    known: np.ndarray | None = None,
) -> np.ndarray:
    """The seed prior computation: full broadcast, no lookup table.

    Produces bit-identical values to the live :func:`byte_priors` (the
    rewrite only tabulates this exact expression), but pays the
    ``(batch, n_bytes, 256, 8)`` float64 broadcast the seed paid.
    """
    observed = np.asarray(observed, dtype=np.uint8)
    n_bytes = observed.shape[-1]
    obs_bits = np.unpackbits(observed, axis=-1).reshape(*observed.shape, 8)
    p_at, p_off = channel.flip_probabilities(n_bytes)
    at_ground = obs_bits == channel.ground_bits(n_bytes)
    p_flip = np.where(at_ground, p_at, p_off)
    match = _LEGACY_VALUE_BITS[(None,) * observed.ndim] == obs_bits[..., None, :]
    prior_log = np.where(
        match, np.log1p(-p_flip)[..., None, :], np.log(p_flip)[..., None, :]
    ).sum(axis=-1)
    if known is not None:
        prior_log = np.where(np.asarray(known, dtype=bool)[..., None], prior_log, 0.0)
    return prior_log


def _legacy_wht(values: np.ndarray) -> np.ndarray:
    """The seed Walsh–Hadamard transform: float64, copies per level."""
    shape = values.shape
    out = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, 256).copy()
    half = 1
    while half < 256:
        out = out.reshape(-1, 256 // (2 * half), 2, half)
        low = out[:, :, 0, :].copy()
        high = out[:, :, 1, :].copy()
        out[:, :, 0, :] = low + high
        out[:, :, 1, :] = low - high
        out = out.reshape(-1, 256)
        half *= 2
    return out.reshape(shape)


def legacy_decode_schedules(
    observed: np.ndarray,
    key_bits: int,
    channel: ChannelModel,
    known: np.ndarray | None = None,
    max_iters: int = 72,
    damping: float = 0.2,
    on_progress=None,
    deadline: "Deadline | float | None" = None,
    state: DecodeState | None = None,
    beat_every: int = 4,
    stall_sweeps: int = 8,
) -> DecodeResult:
    """Dense sum-product decode, verbatim from the pre-rewrite module."""
    graph = build_constraint_graph(key_bits)
    observed = np.asarray(observed, dtype=np.uint8)
    squeeze = observed.ndim == 1
    if squeeze:
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

    prior_log = _legacy_byte_priors(observed, channel, known)  # (B, V, 256)
    n_checks, n_edges = graph.n_checks, graph.n_edges
    if (
        state is not None
        and state.digest == digest
        and state.messages.shape == (batch, n_checks, 3, 256)
    ):
        cv = state.messages.astype(np.float64, copy=True)
        start_iteration = int(state.iteration)
    else:
        cv = np.full((batch, n_checks, 3, 256), 1.0 / 256.0, dtype=np.float64)
        start_iteration = 0
    cv_log = np.log(cv)

    rows = np.arange(n_checks)
    hard = observed.copy()
    iterations = start_iteration
    converged = np.zeros(batch, dtype=bool)
    syndrome_weight = np.full(batch, n_checks, dtype=np.int64)

    def syndrome_of(tables: np.ndarray) -> np.ndarray:
        t = tables[:, graph.t_idx]
        s = tables[:, graph.s_idx]
        p = tables[:, graph.p_idx]
        residue = t ^ s ^ graph.fwd_lut[rows[None, :], p]
        return (residue != 0).sum(axis=1)

    def posteriors() -> np.ndarray:
        padded = np.concatenate(
            [cv_log.reshape(batch, n_edges, 256), np.zeros((batch, 1, 256))], axis=1
        )
        return prior_log + padded[:, graph.var_in_edges, :].sum(axis=2)

    posterior_log = posteriors()
    best_total_syndrome = math.inf
    stagnant_sweeps = 0
    for iteration in range(start_iteration, max_iters):
        hard = posterior_log.argmax(axis=2).astype(np.uint8)
        syndrome_weight = syndrome_of(hard)
        converged = syndrome_weight == 0
        if converged.all():
            break
        total = int(syndrome_weight.sum())
        if total < best_total_syndrome:
            best_total_syndrome = total
            stagnant_sweeps = 0
        else:
            stagnant_sweeps += 1
            if stall_sweeps and stagnant_sweeps >= stall_sweeps:
                break
        if deadline is not None and deadline.expired:
            error = DeadlineExceededError(
                deadline.total_seconds, context=f"schedule decode sweep {iteration}"
            )
            error.decode_state = DecodeState(  # type: ignore[attr-defined]
                iteration=iteration, messages=cv.copy(), digest=digest
            )
            raise error
        if on_progress is not None and iteration % max(1, beat_every) == 0:
            on_progress()
        # Variable→check messages: posterior with own edge divided out.
        vc_log = posterior_log[:, graph.edge_var, :].reshape(
            batch, n_checks, 3, 256
        ) - cv_log
        vc_log -= vc_log.max(axis=-1, keepdims=True)
        vc = np.exp(vc_log)
        vc /= vc.sum(axis=-1, keepdims=True)
        # Prev operand enters the XOR in its transformed domain.
        vc_p = np.take_along_axis(vc[:, :, 2, :], graph.inv_lut[None, :, :], axis=2)
        w_t = _legacy_wht(vc[:, :, 0, :])
        w_s = _legacy_wht(vc[:, :, 1, :])
        w_p = _legacy_wht(vc_p)
        # XOR convolution: pointwise product in the WHT domain.
        to_t = _legacy_wht(w_s * w_p)
        to_s = _legacy_wht(w_t * w_p)
        to_p_check = _legacy_wht(w_t * w_s)
        to_p = np.take_along_axis(to_p_check, graph.fwd_lut[None, :, :], axis=2)
        fresh = np.stack([to_t, to_s, to_p], axis=2)
        np.clip(fresh, 1e-300, None, out=fresh)
        fresh /= fresh.sum(axis=-1, keepdims=True)
        cv = damping * cv + (1.0 - damping) * fresh
        cv /= cv.sum(axis=-1, keepdims=True)
        cv_log = np.log(cv)
        posterior_log = posteriors()
        iterations = iteration + 1

    shifted = posterior_log - posterior_log.max(axis=-1, keepdims=True)
    posterior = np.exp(shifted)
    posterior /= posterior.sum(axis=-1, keepdims=True)
    entropy = -(posterior * np.log2(np.clip(posterior, 1e-300, None))).sum(axis=-1)
    return DecodeResult(
        tables=hard,
        converged=converged,
        iterations=iterations,
        syndrome_weight=syndrome_weight.astype(np.int64),
        posterior_entropy=entropy.mean(axis=-1),
        certainty=posterior.max(axis=-1).mean(axis=-1),
    )


# The trajectory-shaping constants and the transform of the serial
# decoder, frozen with it (see ``repro.attack.decode`` for their
# rationale).
RESIDUAL_TOL = 1e-3
_HOPELESS_PROBE_SWEEPS = 2
_SWEEP_CHUNK = 128


def _hadamard(n: int) -> np.ndarray:
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


_H16 = np.ascontiguousarray(_hadamard(16), dtype=np.float32)


def _wht(values: np.ndarray) -> np.ndarray:
    shape = values.shape
    folded = values.reshape(-1, 16, 16)
    return np.matmul(_H16, folded @ _H16).reshape(shape)


def serial_decode_schedule(
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
    """Residual-scheduled decode on the calling thread, frozen verbatim.

    The body below is the live decoder as it stood before its sweeps
    moved onto a thread pool; its original docstring follows.

    Sum-product decode of one observed schedule table or a batch.

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
