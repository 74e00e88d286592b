"""Binary identity encoding and the synthetic ground-truth policy.

The synthetic policy is a pure function grant(user, resource, operation)
built from seeded bit predicates over the identities. It generates labeled
training data for the scoring model and doubles as the oracle the trained
model is judged against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..transactions import N_OPERATIONS, RESOURCE_BITS_WIDTH, USER_BITS_WIDTH


class EncodingError(ValueError):
    """Value does not fit in the requested bit width."""


# Bit vectors kept, one per (value, width). Block execution derives the
# bits of every request's user and resource. On the benchmark's catch-up
# chain and simulator run (seed 1) that is 17,000 and 13,000 calls over
# 100 keys (user indices and resource ids share the width 16), and 0.99 of
# them hit. Full, the cache holds about 330 kB. The tuples are immutable,
# so callers may share them.
BITS_CACHE_SIZE = 1024


@lru_cache(maxsize=BITS_CACHE_SIZE)
def binary_repr(value: int, width: int) -> tuple[int, ...]:
    """Big-endian fixed-width binary expansion of an unsigned integer."""
    if value < 0:
        raise EncodingError(f"value must be unsigned, got {value}")
    if value >= (1 << width):
        raise EncodingError(f"{value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def encode_pair(
    user_index: int,
    resource_id: int,
    user_width: int = USER_BITS_WIDTH,
    resource_width: int = RESOURCE_BITS_WIDTH,
) -> np.ndarray:
    """Model input: user bits concatenated with resource bits, as float64."""
    bits = binary_repr(user_index, user_width) + binary_repr(resource_id, resource_width)
    return np.array(bits, dtype=np.float64)


_PAIR_SHIFTS = np.arange(USER_BITS_WIDTH + RESOURCE_BITS_WIDTH - 1, -1, -1)


def encode_pairs(user_indices: Sequence[int], resource_ids: Sequence[int]) -> np.ndarray:
    """``encode_pair`` of each (user, resource) pair, one row each."""
    for values, width in ((user_indices, USER_BITS_WIDTH), (resource_ids, RESOURCE_BITS_WIDTH)):
        if min(values) < 0 or max(values) >> width:
            raise EncodingError(f"a value does not fit in {width} unsigned bits")
    packed = np.array([(u << RESOURCE_BITS_WIDTH) | r for u, r in zip(user_indices, resource_ids)], dtype=np.int64)
    return ((packed[:, None] >> _PAIR_SHIFTS) & 1).astype(np.float64)


def _bit(value: int, position: int) -> int:
    return (value >> position) & 1


@dataclass(frozen=True)
class SyntheticPolicy:
    """Deterministic grant function over (user_index, resource_id, operation).

    Per operation, the grant decision is a small boolean formula over seeded
    bit positions of the two identities:

        grant = ((u[a] xor r[b]) or (u[c] and r[d])) xor invert

    ``user_bits`` / ``resource_bits`` bound which low-order bit positions the
    predicates may touch, so every predicate bit actually varies over the
    intended id ranges.
    """

    seed: int
    user_bits: int = 7
    resource_bits: int = 6
    _params: tuple[tuple[int, int, int, int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        params = tuple(
            (
                rng.randrange(self.user_bits),
                rng.randrange(self.resource_bits),
                rng.randrange(self.user_bits),
                rng.randrange(self.resource_bits),
                rng.randrange(2),
            )
            for _ in range(N_OPERATIONS)
        )
        object.__setattr__(self, "_params", params)

    def grant(self, user_index: int, resource_id: int, operation: int) -> bool:
        a, b, c, d, invert = self._params[operation]
        value = (_bit(user_index, a) ^ _bit(resource_id, b)) | (
            _bit(user_index, c) & _bit(resource_id, d)
        )
        return bool(value ^ invert)

    def grant_vector(self, user_index: int, resource_id: int) -> tuple[bool, ...]:
        return tuple(self.grant(user_index, resource_id, op) for op in range(N_OPERATIONS))


@dataclass
class LabeledDataset:
    """One row per (user, resource) pair with four operation labels."""

    pairs: np.ndarray  # (n, 2) int64: user_index, resource_id
    inputs: np.ndarray  # (n, user_width + resource_width) float64 of 0/1
    labels: np.ndarray  # (n, 4) float64 of 0/1

    def __len__(self) -> int:
        return len(self.pairs)


def generate_dataset(
    policy: SyntheticPolicy,
    n_users: int,
    n_resources: int,
    user_width: int = USER_BITS_WIDTH,
    resource_width: int = RESOURCE_BITS_WIDTH,
) -> LabeledDataset:
    """Label every (user, resource) pair with the policy's truth."""
    if n_users > (1 << user_width) or n_resources > (1 << resource_width):
        raise EncodingError("id space exceeds encoding width")
    pairs = np.array(
        [(u, r) for u in range(n_users) for r in range(n_resources)], dtype=np.int64
    )
    inputs = np.zeros((len(pairs), user_width + resource_width), dtype=np.float64)
    labels = np.zeros((len(pairs), N_OPERATIONS), dtype=np.float64)
    for i, (u, r) in enumerate(pairs):
        inputs[i] = encode_pair(int(u), int(r), user_width, resource_width)
        labels[i] = [1.0 if g else 0.0 for g in policy.grant_vector(int(u), int(r))]
    return LabeledDataset(pairs=pairs, inputs=inputs, labels=labels)
