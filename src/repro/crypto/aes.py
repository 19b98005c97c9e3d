"""AES (FIPS-197) from scratch: S-box, key schedule, block cipher.

The cold boot attack in this project does not need AES for *encryption*
so much as for its **key schedule**: the victim's disk-encryption master
key lives in memory in expanded form (the full round-key table), and the
attack identifies it by checking whether 32 bytes of a candidate memory
block, pushed through one step of the key-expansion recurrence, predict
the adjacent bytes (paper §III-C, Figure 4).

Consequently this module exposes the schedule machinery in unusually
general form:

* :func:`expand_key_words` / :func:`expand_key` — the ordinary full
  expansion;
* :func:`extend_schedule_words` — continue a schedule from *any* word
  position given a window of ``Nk`` consecutive words.  This is what the
  "12 possible partial expansions" of the paper are built from, since the
  attacker does not know which rounds a memory block contains;
* :func:`batch_next_round_key` — a numpy-vectorised version of one
  expansion step applied to thousands of candidate blocks at once.  This
  plays the role AES-NI plays in the paper's implementation: it makes
  scanning large memory dumps tractable.

The block cipher itself (:class:`AES`) is used by the simulated
VeraCrypt-style disk encryption service and by the AES-CTR memory
encryption engine of §IV.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.gf import gf_inverse, gf_multiply


def _build_sbox() -> tuple[np.ndarray, np.ndarray]:
    """Construct the AES S-box from GF(2^8) inversion + affine transform."""
    forward = np.zeros(256, dtype=np.uint8)
    for x in range(256):
        inv = gf_inverse(x)
        # Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
        result = 0
        for i in range(8):
            bit_value = (
                (inv >> i)
                ^ (inv >> ((i + 4) % 8))
                ^ (inv >> ((i + 5) % 8))
                ^ (inv >> ((i + 6) % 8))
                ^ (inv >> ((i + 7) % 8))
                ^ (0x63 >> i)
            ) & 1
            result |= bit_value << i
        forward[x] = result
    inverse = np.zeros(256, dtype=np.uint8)
    inverse[forward] = np.arange(256, dtype=np.uint8)
    return forward, inverse


SBOX, INV_SBOX = _build_sbox()


def sbox(value: int) -> int:
    """Forward S-box lookup for a single byte."""
    return int(SBOX[value & 0xFF])


def inv_sbox(value: int) -> int:
    """Inverse S-box lookup for a single byte."""
    return int(INV_SBOX[value & 0xFF])


def Rcon(i: int) -> int:
    """Round constant byte for key-expansion step ``i`` (1-based)."""
    if i < 1:
        raise ValueError("Rcon index starts at 1")
    value = 1
    for _ in range(i - 1):
        value = gf_multiply(value, 2)
    return value


#: Supported key sizes in bits mapped to Nk (key length in 32-bit words).
_NK_FOR_BITS = {128: 4, 192: 6, 256: 8}
#: Nk mapped to number of rounds Nr.
_ROUNDS_FOR_NK = {4: 10, 6: 12, 8: 14}


def key_length_for(key_bits: int) -> int:
    """Key length in bytes for an AES variant (128/192/256)."""
    if key_bits not in _NK_FOR_BITS:
        raise ValueError(f"unsupported AES key size: {key_bits}")
    return key_bits // 8


def rounds_for(key_bits: int) -> int:
    """Number of rounds Nr for an AES variant (10/12/14)."""
    return _ROUNDS_FOR_NK[_NK_FOR_BITS[key_bits]]


def schedule_bytes(key_bits: int) -> int:
    """Size in bytes of the fully expanded key schedule.

    176 for AES-128, 208 for AES-192, 240 for AES-256 — the 240-byte
    figure is the paper's search target for disk-encryption keys.
    """
    return 16 * (rounds_for(key_bits) + 1)


def schedule_constraints(key_bits: int) -> list[tuple[int, str, int]]:
    """The key-expansion recurrence as an explicit constraint list.

    Every expanded schedule satisfies ``w[i] = w[i-Nk] ^ T_i(w[i-1])``
    for ``i`` in ``Nk .. 4·(Nr+1)-1``; this enumerates those equations
    as ``(i, kind, rcon)`` tuples where ``kind`` is ``"rot"`` (RotWord ∘
    SubWord ∘ Rcon), ``"sub"`` (SubWord only, AES-256's mid-key step) or
    ``"linear"`` (plain XOR), and ``rcon`` is the round-constant byte
    (0 outside ``"rot"`` steps).  This is the redundancy that makes a
    decayed in-memory schedule an error-correcting codeword — the
    belief-propagation decoder in :mod:`repro.attack.decode` builds its
    check-node tables from exactly this list.
    """
    nk = _NK_FOR_BITS[key_bits]
    total_words = 4 * (rounds_for(key_bits) + 1)
    constraints: list[tuple[int, str, int]] = []
    for i in range(nk, total_words):
        if i % nk == 0:
            constraints.append((i, "rot", Rcon(i // nk)))
        elif nk > 6 and i % nk == 4:
            constraints.append((i, "sub", 0))
        else:
            constraints.append((i, "linear", 0))
    return constraints


def _sub_word(word: int) -> int:
    """Apply the S-box to each byte of a 32-bit word."""
    return (
        (sbox((word >> 24) & 0xFF) << 24)
        | (sbox((word >> 16) & 0xFF) << 16)
        | (sbox((word >> 8) & 0xFF) << 8)
        | sbox(word & 0xFF)
    )


def _rot_word(word: int) -> int:
    """Rotate a 32-bit word left by one byte."""
    return ((word << 8) | (word >> 24)) & 0xFFFFFFFF


def extend_schedule_words(
    window: list[int] | tuple[int, ...], first_index: int, count: int, nk: int
) -> list[int]:
    """Continue an AES key schedule from an arbitrary position.

    ``window`` must hold ``nk`` consecutive schedule words whose first
    word sits at absolute schedule index ``first_index``.  Returns the
    next ``count`` words.  This is the primitive behind the attack's
    partial expansions: the same recurrence, but started mid-schedule
    with a *guessed* position (the guess fixes which Rcon applies and
    whether the SubWord-only rule fires).
    """
    if nk not in _ROUNDS_FOR_NK:
        raise ValueError(f"unsupported Nk: {nk}")
    if len(window) != nk:
        raise ValueError(f"window must hold exactly {nk} words, got {len(window)}")
    if first_index < 0:
        raise ValueError("first_index must be non-negative")
    words = list(window)
    produced: list[int] = []
    i = first_index + nk
    for _ in range(count):
        temp = words[-1]
        if i % nk == 0:
            temp = _sub_word(_rot_word(temp)) ^ (Rcon(i // nk) << 24)
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        new = words[-nk] ^ temp
        produced.append(new)
        words.append(new)
        i += 1
    return produced


def expand_key_words(key: bytes) -> list[int]:
    """Full FIPS-197 key expansion; returns ``4 * (Nr + 1)`` 32-bit words."""
    nk = _NK_FOR_BITS.get(len(key) * 8)
    if nk is None:
        raise ValueError(f"unsupported AES key length: {len(key)} bytes")
    initial = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
    total = 4 * (_ROUNDS_FOR_NK[nk] + 1)
    return initial + extend_schedule_words(initial, 0, total - nk, nk)


def expand_key(key: bytes) -> bytes:
    """Full key expansion as bytes — exactly what resides in victim RAM."""
    return b"".join(w.to_bytes(4, "big") for w in expand_key_words(key))


def batch_next_round_key(blocks: np.ndarray, nk: int, first_word_index: int) -> np.ndarray:
    """Vectorised one-round-key continuation for many candidates at once.

    ``blocks`` is an ``(N, 4 * nk)`` uint8 array where each row holds
    ``nk`` consecutive schedule words assumed to start at absolute word
    index ``first_word_index``.  Returns an ``(N, 16)`` uint8 array with
    the next four schedule words (one round key) for every row.

    This is the hot inner loop of the AES litmus test: for each memory
    block and each candidate scrambler key the attack asks "if these 32
    bytes were two consecutive AES-256 round keys starting at round *r*,
    what would the next round key be?" and compares against the adjacent
    bytes with a Hamming budget.
    """
    if nk not in _ROUNDS_FOR_NK:
        raise ValueError(f"unsupported Nk: {nk}")
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] != 4 * nk:
        raise ValueError(f"blocks must be (N, {4 * nk}), got {blocks.shape}")
    # Window of the last nk words per row, each word as 4 bytes.
    window = [blocks[:, 4 * w : 4 * w + 4].copy() for w in range(nk)]
    out_words: list[np.ndarray] = []
    i = first_word_index + nk
    for _ in range(4):
        temp = window[-1]
        if i % nk == 0:
            rotated = np.roll(temp, -1, axis=1)
            temp = SBOX[rotated]
            temp = temp.copy()
            temp[:, 0] ^= Rcon(i // nk)
        elif nk > 6 and i % nk == 4:
            temp = SBOX[temp]
        new = window[-nk] ^ temp
        out_words.append(new)
        window.append(new)
        window.pop(0)  # keep the window exactly nk words long
        i += 1
    return np.concatenate(out_words, axis=1)


#: SubWord of a 16-bit half word: entry ``v`` holds the S-box images of
#: ``v``'s two bytes in the same byte positions, so a 32-bit word of
#: either byte order takes two lookups.
_SUB_PAIRS = np.empty(1 << 16, dtype=np.uint32)
np.bitwise_or((SBOX.astype(np.uint32) << 8)[:, None], SBOX, out=_SUB_PAIRS.reshape(256, 256))
#: ``Rcon(i)`` by step ``i``; every schedule stops before step 11.
_RCON = (0, *(Rcon(i) for i in range(1, 11)))


def _expand_words(window: list, first_index: int, nk: int, lookup) -> list:
    """The whole schedule from ``nk`` words that start at ``first_index``.

    A word is a Python int, or a uint32 array holding that word of every
    row; ``lookup`` gathers ``_SUB_PAIRS`` entries for either.  The
    recurrence ``w[i] = w[i-Nk] ^ T_i(w[i-1])`` is solved for
    ``w[i-Nk]`` down to word 0, then run forwards from the window to the
    end.
    """

    def transform(word, index: int):
        if index % nk == 0:
            word = ((word << 8) | (word >> 24)) & 0xFFFFFFFF
            return ((lookup(word >> 16) << 16) | lookup(word & 0xFFFF)) ^ (
                _RCON[index // nk] << 24
            )
        if nk > 6 and index % nk == 4:
            return (lookup(word >> 16) << 16) | lookup(word & 0xFFFF)
        return word

    words = [None] * first_index + list(window)
    for index in range(first_index + nk - 1, nk - 1, -1):
        words[index - nk] = words[index] ^ transform(words[index - 1], index)
    for index in range(first_index + nk, 4 * (_ROUNDS_FOR_NK[nk] + 1)):
        words.append(words[index - nk] ^ transform(words[index - 1], index))
    return words


def batch_expand_from_window(
    windows: np.ndarray, first_index: int, nk: int
) -> np.ndarray:
    """Vectorised whole-schedule reconstruction from mid-schedule windows.

    ``windows`` is an ``(N, 4 * nk)`` uint8 array; each row holds ``nk``
    consecutive schedule words assumed to start at absolute word index
    ``first_index``.  The expansion recurrence is bijective, so every
    row's full schedule is recovered by running it backwards to word 0
    and forwards to the end — ``4 * (Nr + 1)`` words, returned as an
    ``(N, 16 * (Nr + 1))`` uint8 array.

    One row of the result equals
    ``reconstruct_schedule(row_words, first_index, key_bits)``; batching
    moves the attack's ballot stage (hundreds of single-bit repair
    variants per observed window) from per-candidate Python loops onto
    numpy, which is what makes large-dump scans affordable.  Rows are
    big-endian uint32 words, so SubWord is two gathers from a 16-bit
    table; a single row runs the same recurrence on Python ints, which
    beats a one-element array at every step.
    """
    if nk not in _ROUNDS_FOR_NK:
        raise ValueError(f"unsupported Nk: {nk}")
    windows = np.asarray(windows, dtype=np.uint8)
    if windows.ndim != 2 or windows.shape[1] != 4 * nk:
        raise ValueError(f"windows must be (N, {4 * nk}), got {windows.shape}")
    total = 4 * (_ROUNDS_FOR_NK[nk] + 1)
    if first_index < 0 or first_index + nk > total:
        raise ValueError("window does not fit the schedule")
    words = np.ascontiguousarray(windows).view(">u4")
    if words.shape[0] == 1:
        lookup = memoryview(_SUB_PAIRS).__getitem__
        schedule = _expand_words(words[0].tolist(), first_index, nk, lookup)
        return np.array(schedule, dtype=">u4").view(np.uint8)[None, :]
    columns = np.ascontiguousarray(words.T, dtype=np.uint32)
    schedule = _expand_words(list(columns), first_index, nk, _SUB_PAIRS.take)
    return np.stack(schedule, axis=1).astype(">u4").view(np.uint8)


def _bytes_to_state(block: bytes) -> list[list[int]]:
    """Load a 16-byte block into the column-major AES state matrix."""
    return [[block[r + 4 * c] for c in range(4)] for r in range(4)]


def _state_to_bytes(state: list[list[int]]) -> bytes:
    """Serialise the AES state matrix back to 16 bytes."""
    return bytes(state[r][c] for c in range(4) for r in range(4))


class AES:
    """The AES block cipher for 128-, 192- or 256-bit keys.

    >>> cipher = AES(bytes(range(16)))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"attack at dawn!!")) == b"attack at dawn!!"
    True
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.key_bits = len(key) * 8
        self.rounds = rounds_for(self.key_bits)
        words = expand_key_words(key)
        #: Round keys as 16-byte strings, index 0..Nr.
        self.round_keys = [
            b"".join(words[4 * r + c].to_bytes(4, "big") for c in range(4))
            for r in range(self.rounds + 1)
        ]

    def _add_round_key(self, state: list[list[int]], round_index: int) -> None:
        rk = self.round_keys[round_index]
        for c in range(4):
            for r in range(4):
                state[r][c] ^= rk[4 * c + r]

    @staticmethod
    def _sub_bytes(state: list[list[int]], table: np.ndarray) -> None:
        for r in range(4):
            for c in range(4):
                state[r][c] = int(table[state[r][c]])

    @staticmethod
    def _shift_rows(state: list[list[int]], inverse: bool = False) -> None:
        for r in range(1, 4):
            shift = -r if inverse else r
            state[r] = state[r][shift % 4 :] + state[r][: shift % 4]

    @staticmethod
    def _mix_columns(state: list[list[int]], inverse: bool = False) -> None:
        matrix = (
            ((14, 11, 13, 9), (9, 14, 11, 13), (13, 9, 14, 11), (11, 13, 9, 14))
            if inverse
            else ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
        )
        for c in range(4):
            col = [state[r][c] for r in range(4)]
            for r in range(4):
                state[r][c] = (
                    gf_multiply(matrix[r][0], col[0])
                    ^ gf_multiply(matrix[r][1], col[1])
                    ^ gf_multiply(matrix[r][2], col[2])
                    ^ gf_multiply(matrix[r][3], col[3])
                )

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        state = _bytes_to_state(block)
        self._add_round_key(state, 0)
        for round_index in range(1, self.rounds):
            self._sub_bytes(state, SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, round_index)
        self._sub_bytes(state, SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self.rounds)
        return _state_to_bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        state = _bytes_to_state(block)
        self._add_round_key(state, self.rounds)
        for round_index in range(self.rounds - 1, 0, -1):
            self._shift_rows(state, inverse=True)
            self._sub_bytes(state, INV_SBOX)
            self._add_round_key(state, round_index)
            self._mix_columns(state, inverse=True)
        self._shift_rows(state, inverse=True)
        self._sub_bytes(state, INV_SBOX)
        self._add_round_key(state, 0)
        return _state_to_bytes(state)

    def expanded_schedule(self) -> bytes:
        """The full expanded key schedule as stored in memory by software."""
        return b"".join(self.round_keys)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt many 16-byte blocks at once: ``(n, 16)`` in and out.

        Row ``i`` equals ``encrypt_block(blocks[i])``; each AES layer
        runs as one table lookup / permutation / XOR over the whole
        batch, which is what lets the §IV AES-CTR engine keep up with
        the bulk memory-controller data path.
        """
        blocks = np.asarray(blocks, dtype=np.uint8)
        if blocks.ndim != 2 or blocks.shape[1] != 16:
            raise ValueError(f"blocks must be (n, 16), got {blocks.shape}")
        round_keys = np.frombuffer(b"".join(self.round_keys), dtype=np.uint8).reshape(
            self.rounds + 1, 16
        )
        state = blocks ^ round_keys[0]
        for round_index in range(1, self.rounds):
            state = SBOX[state][:, _SHIFT_ROWS_PERM]
            state = _mix_columns_batch(state)
            state ^= round_keys[round_index]
        state = SBOX[state][:, _SHIFT_ROWS_PERM]
        state ^= round_keys[self.rounds]
        return state


#: ShiftRows as a flat byte permutation: state[r][c] lives at r + 4c, and
#: the rotated row reads state[r][(c + r) % 4].
_SHIFT_ROWS_PERM = np.array(
    [r + 4 * ((c + r) % 4) for c in range(4) for r in range(4)], dtype=np.intp
)

#: GF(2^8) ·2 and ·3 lookup tables for the batched MixColumns.
_GF_MUL2 = np.array([gf_multiply(2, value) for value in range(256)], dtype=np.uint8)
_GF_MUL3 = np.array([gf_multiply(3, value) for value in range(256)], dtype=np.uint8)


def _mix_columns_batch(state: np.ndarray) -> np.ndarray:
    """MixColumns over an ``(n, 16)`` batch (forward direction only)."""
    columns = state.reshape(-1, 4, 4)
    b0, b1, b2, b3 = (columns[:, :, r] for r in range(4))
    mixed = np.empty_like(columns)
    mixed[:, :, 0] = _GF_MUL2[b0] ^ _GF_MUL3[b1] ^ b2 ^ b3
    mixed[:, :, 1] = b0 ^ _GF_MUL2[b1] ^ _GF_MUL3[b2] ^ b3
    mixed[:, :, 2] = b0 ^ b1 ^ _GF_MUL2[b2] ^ _GF_MUL3[b3]
    mixed[:, :, 3] = _GF_MUL3[b0] ^ b1 ^ b2 ^ _GF_MUL2[b3]
    return mixed.reshape(-1, 16)
