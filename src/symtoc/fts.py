"""Finite nondeterministic transition systems and dense state sets.

A FiniteSystem stores, for every (state, input) pair, the sorted set of
successor states. A pair with no stored successors means the input is
disabled at that state. Systems are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class StateSet:
    """Set of state indices over 0..num_states-1, backed by a dense bool mask."""

    __slots__ = ("mask",)

    def __init__(self, num_states: int, indices: Iterable[int] = ()):
        mask = np.zeros(int(num_states), dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= num_states:
                raise IndexError("state index out of range for StateSet")
            mask[idx] = True
        self.mask = mask

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "StateSet":
        s = cls.__new__(cls)
        s.mask = np.asarray(mask, dtype=bool).copy()
        return s

    @property
    def num_states(self) -> int:
        return self.mask.size

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[x])

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __iter__(self):
        return iter(self.indices())

    def __or__(self, other: "StateSet") -> "StateSet":
        return StateSet.from_mask(self.mask | other.mask)

    def __and__(self, other: "StateSet") -> "StateSet":
        return StateSet.from_mask(self.mask & other.mask)

    def __sub__(self, other: "StateSet") -> "StateSet":
        return StateSet.from_mask(self.mask & ~other.mask)

    def __invert__(self) -> "StateSet":
        return StateSet.from_mask(~self.mask)

    def __le__(self, other: "StateSet") -> bool:
        return bool(np.all(~self.mask | other.mask))

    def __eq__(self, other) -> bool:
        return isinstance(other, StateSet) and np.array_equal(self.mask, other.mask)

    def __repr__(self):
        return f"StateSet({len(self)}/{self.num_states})"


class FiniteSystem:
    """Nondeterministic finite transition system with per-(state, input) successor sets.

    Successor sets are stored in one flat compressed layout: `offsets` has
    length num_states*num_inputs+1 and `targets[offsets[k]:offsets[k+1]]` is
    the sorted successor list of pair k = state*num_inputs + input. Empty
    ranges encode disabled inputs. `from_csr`, the one constructor, takes
    the lists as given: its callers keep them strictly ascending.
    """

    @classmethod
    def from_csr(cls, num_states, num_inputs, offsets, targets) -> "FiniteSystem":
        """Build directly from the compressed layout, after checking it."""
        sys = cls.__new__(cls)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        targets = np.asarray(targets)
        if offsets.shape != (num_states * num_inputs + 1,):
            raise ValueError("offsets has wrong length")
        if offsets[0] != 0 or offsets[-1] != targets.size:
            raise ValueError("offsets do not span targets")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be nondecreasing")
        # before the int32 cast, which would wrap a wider id into range
        if targets.size and (targets.min() < 0 or targets.max() >= num_states):
            raise IndexError("successor out of range")
        sys.num_states = int(num_states)
        sys.num_inputs = int(num_inputs)
        sys._offsets = offsets
        sys._targets = np.ascontiguousarray(targets, dtype=np.int32)
        sys._offsets.setflags(write=False)
        sys._targets.setflags(write=False)
        sys._reverse_cache = None
        return sys

    # -- basic queries -------------------------------------------------

    @property
    def pair_counts(self) -> np.ndarray:
        return np.diff(self._offsets)

    @property
    def num_transitions(self) -> int:
        return int(self._targets.size)

    # -- restriction ---------------------------------------------------

    def restrict(self, allowed) -> "FiniteSystem":
        """Keep transition (x,u,.) iff allowed[x, u], for a bool array of shape
        (num_states, num_inputs)."""
        keep = np.asarray(allowed, dtype=bool)
        if keep.shape != (self.num_states, self.num_inputs):
            raise ValueError("allowed matrix has wrong shape")
        keep = keep.ravel()
        counts = self.pair_counts * keep
        offsets = np.zeros_like(self._offsets)
        np.cumsum(counts, out=offsets[1:])
        entry_keep = np.repeat(keep, self.pair_counts)
        targets = self._targets[entry_keep]
        child = FiniteSystem.from_csr(self.num_states, self.num_inputs, offsets, targets)
        if self._reverse_cache is not None:
            # filtering keeps every state's pairs in ascending order, so this
            # is exactly the child's own reverse()
            rev_pairs = self._reverse_cache[1]
            child._reverse_cache = (child._reverse_offsets(), rev_pairs[keep[rev_pairs]])
        return child

    # -- reverse adjacency (used by the solvers) ------------------------

    def reverse(self):
        """Reverse adjacency: for each state s, the pair ids (x*M+u) with s in Post_u(x).

        Returns (rev_offsets, rev_pairs); entries for s live at
        rev_pairs[rev_offsets[s]:rev_offsets[s+1]] in ascending pair order.
        Pair ids are int32 (int64 only if num_states*num_inputs overflows
        int32). Cached; concurrent first calls may compute it twice but
        always produce the same arrays.
        """
        if self._reverse_cache is None:
            n_pairs = self.num_states * self.num_inputs
            pair_type = np.int32 if n_pairs <= np.iinfo(np.int32).max else np.int64
            # one in-place sort of the keys target*n_pairs + pair orders the
            # entries by target and, within a target, by ascending pair; the
            # keys stay below N*N*M, so they are uint32 while that fits (and
            # pair ids are int32), else int64
            narrow = pair_type is np.int32 and self.num_states * n_pairs <= 2 ** 32
            key_type = np.uint32 if narrow else np.int64
            key = self._targets.astype(key_type)
            key *= key_type(n_pairs)
            key += np.repeat(np.arange(n_pairs, dtype=np.uint32 if narrow else pair_type),
                             self.pair_counts)
            key.sort()
            key %= key_type(max(n_pairs, 1))
            pairs = key.view(np.int32) if narrow else key.astype(pair_type)
            self._reverse_cache = (self._reverse_offsets(), pairs)
        return self._reverse_cache

    def _reverse_offsets(self) -> np.ndarray:
        rev_offsets = np.zeros(self.num_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._targets, minlength=self.num_states), out=rev_offsets[1:])
        return rev_offsets

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteSystem)
                and self.num_states == other.num_states
                and self.num_inputs == other.num_inputs
                and np.array_equal(self._offsets, other._offsets)
                and np.array_equal(self._targets, other._targets))

    def __repr__(self):
        return (f"FiniteSystem(states={self.num_states}, inputs={self.num_inputs}, "
                f"transitions={self.num_transitions})")


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of `values` under a CSR offsets array (empty segments give 0)."""
    cs = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=cs[1:])
    return cs[offsets[1:]] - cs[offsets[:-1]]


def segment_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenated ranges [starts[i], starts[i] + counts[i])."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total, dtype=np.int64)
