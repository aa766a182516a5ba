"""Vectorised evaluation of candidate configurations over request windows.

The best-response steps of ONBR/ONTH (§III-A) and the greedy placement of
OFFSTAT (§V-B) all answer the same question: *given the requests of some
window (an epoch, or the whole trace), how much access cost would a
candidate server placement have incurred?* :class:`RequestBatch` holds the
one implementation of that question — the exact, removal, addition and
migration costs — engineered so that scanning all ``O(n)`` single-change
candidates costs a handful of numpy broadcasts instead of ``O(n · |σ|)``
Python work:

* the window's requests are flattened into one index array with per-round
  offsets;
* per-request *base* latencies under the current placement are computed
  once; adding a candidate server ``u`` then costs one
  ``minimum(D[u], base)`` reduction, and the whole candidate family is a
  single ``(n × R)`` broadcast; the ``k`` leave-one-out removals and the
  ``k`` migration families are fused into stacked passes;
* the load term is added exactly. For assignment-invariant load models
  (linear load, uniform strengths — the paper's default) it is a constant
  across candidates; otherwise every candidate gets a lower bound (its
  latency plus a perfectly balanced load) and the candidates are scored
  exactly, per-round loads included, in blocks of growing size in bound
  order until the family's argmin is an exact score. Each block is one
  numpy pass (:meth:`RequestBatch._score_block`). Nodes a family may not
  use (occupied migration targets) are masked before this walk, so the
  argmin a caller reads is always exactly priced.

Where the window's requests and distance columns come from is the only
thing that varies. A plain :class:`RequestBatch` copies its rounds and
fancy-indexes the substrate's distance matrix. A :class:`GatherWindow`
moves ``[t0, t1)`` pointers over a :class:`DistanceGather` — the distance
columns of a whole trace, gathered once — and shares the per-window
candidate families it computes with every sibling window over the same
gather (ONBR fixed vs dyn evaluate many identical epochs).

Bit-identity ground rules (why the two sources give the same floats):
numpy's pairwise summation is a pure function of the summand sequence and
operand layout, and both sources hand the same methods the same values in
the same Fortran-ordered layout (a column fancy-index). ``min``/``argmin``
and gathers are exact, so leave-one-out bases may be composed from
prefix/suffix minima; integer ``bincount`` counts give identical load
floats. Algebraic shortcuts that change float values in ULPs are
deliberately avoided.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.costs import CostModel
from repro.topology.substrate import Substrate
from repro.workload.base import Trace

__all__ = ["RequestBatch", "DistanceGather", "GatherWindow"]

#: First block of the exact walk for load models that are not
#: assignment-invariant: the best-bounded candidates scored exactly in one
#: pass. Each further block is twice the size of the one before.
_SHORTLIST_SIZE = 8

#: Cap on the elements of one exact block-scoring pass, ``candidates ×
#: max(requests, rounds × servers)``; larger blocks are scored in row
#: chunks (identical values, lower peak memory).
_BLOCK_ELEMS_MAX = 1 << 22

#: Cap on the stacked ``(k, n, requests)`` migration broadcast; above this
#: the scan runs per-server rows (identical values, lower peak memory).
_STACK_ELEMS_MAX = 1 << 24

#: Entries the shared epoch memo holds before it is cleared.
_MEMO_MAX = 32768


class RequestBatch:
    """A window of request rounds, flattened for vectorised evaluation.

    Args:
        substrate: the substrate network (provides distances/strengths).
        costs: the cost model (load function and wireless hop).
        rounds: list of per-round request arrays; may be empty.
    """

    def __init__(
        self,
        substrate: Substrate,
        costs: CostModel,
        rounds: "list[np.ndarray] | tuple[np.ndarray, ...]" = (),
    ) -> None:
        self._substrate = substrate
        self._costs = costs
        self._rounds: list[np.ndarray] = []
        self._invariant: "bool | None" = None
        self._reset_views()
        for arr in rounds:
            self.add_round(arr)

    # -- accumulation -----------------------------------------------------------

    def _reset_views(self) -> None:
        self._flat: "np.ndarray | None" = None
        self._round_ids: "np.ndarray | None" = None
        self._sizes: "np.ndarray | None" = None
        self._inv_load: "float | None" = None

    def add_round(self, requests: np.ndarray) -> None:
        """Append one round's request multiset to the window."""
        self._rounds.append(np.asarray(requests, dtype=np.int64))
        self._reset_views()

    def clear(self) -> None:
        """Empty the window (start of a new epoch)."""
        self._rounds.clear()
        self._reset_views()

    @property
    def n_rounds(self) -> int:
        """Number of rounds in the window."""
        return len(self._rounds)

    @property
    def total_requests(self) -> int:
        """Number of requests in the window."""
        return int(self.flat.size)

    @property
    def flat(self) -> np.ndarray:
        """All requests of the window, concatenated."""
        if self._flat is None:
            self._flat = (
                np.concatenate(self._rounds)
                if self._rounds
                else np.zeros(0, dtype=np.int64)
            )
        return self._flat

    @property
    def round_ids(self) -> np.ndarray:
        """Round index of each entry of :attr:`flat`."""
        if self._round_ids is None:
            sizes = [arr.size for arr in self._rounds]
            self._round_ids = np.repeat(
                np.arange(len(self._rounds), dtype=np.int64), sizes
            )
        return self._round_ids

    @property
    def round_sizes(self) -> np.ndarray:
        """Per-round request counts as float64 (memoised)."""
        if self._sizes is None:
            self._sizes = np.asarray(
                [arr.size for arr in self._rounds], dtype=np.float64
            )
        return self._sizes

    # -- distance access (where a gather window differs) ------------------------

    def _distance_block(self, rows: np.ndarray) -> np.ndarray:
        """Distances from ``rows`` to every window request, ``(len(rows), R)``."""
        return self._substrate.distances[np.ix_(rows, self.flat)]

    def _candidate_matrix(self) -> np.ndarray:
        """Distances from *every* node to every window request, ``(n, R)``."""
        return self._substrate.distances[:, self.flat]

    def _memoised(self, kind: str, active: np.ndarray, compute: Callable):
        """``compute()`` — gather windows share the result with siblings."""
        return compute()

    # -- exact costs -----------------------------------------------------------

    def exact_access_cost(self, active: "np.ndarray | tuple[int, ...]") -> float:
        """Access cost of serving the window with servers at ``active``.

        Latency uses nearest routing; load is computed per round from the
        induced request counts, exactly as the simulator would charge it.
        """
        active = np.asarray(active, dtype=np.int64)
        flat = self.flat
        if flat.size == 0:
            return 0.0
        if active.size == 0:
            raise ValueError("cannot evaluate a window against zero active servers")

        distances = self._distance_block(active)
        assignment = np.argmin(distances, axis=0)
        latency = float(distances[assignment, np.arange(flat.size)].sum())
        latency += self._costs.wireless_hop * flat.size

        k = active.size
        counts = np.bincount(
            self.round_ids * k + assignment, minlength=self.n_rounds * k
        ).reshape(self.n_rounds, k)
        strengths = self._substrate.strengths[active]
        load = float(self._costs.load(strengths, counts).sum())
        return latency + load

    def _load_is_invariant(self) -> bool:
        if self._invariant is None:
            uniform = bool(
                np.all(self._substrate.strengths == self._substrate.strengths[0])
            )
            self._invariant = (
                uniform and self._costs.load.assignment_invariant_for_uniform_strength
            )
        return self._invariant

    def _invariant_load(self) -> float:
        """Window load total when it does not depend on the assignment."""
        if self._inv_load is None:
            sizes = self.round_sizes
            strength = float(self._substrate.strengths[0])
            self._inv_load = float(
                self._costs.load(np.full(sizes.shape, strength), sizes).sum()
            )
        return self._inv_load

    # -- candidate families ---------------------------------------------------------

    def base_latency(self, active: "np.ndarray | tuple[int, ...]") -> np.ndarray:
        """Per-request nearest-server latency under ``active`` (no hop, no load)."""
        active = np.asarray(active, dtype=np.int64)
        if self.flat.size == 0:
            return np.zeros(0, dtype=np.float64)
        if active.size == 0:
            return np.full(self.flat.size, np.inf)
        return self._distance_block(active).min(axis=0)

    def addition_costs(
        self,
        active: "np.ndarray | tuple[int, ...]",
        cached: "np.ndarray | tuple[int, ...]" = (),
    ) -> np.ndarray:
        """Access cost of the window for ``active + {u}``, for every node ``u``.

        Entry ``u`` of the result is the exact window access cost of the
        placement ``active ∪ {u}`` (for ``u`` already in ``active`` this
        equals the unchanged cost). One ``(n × R)`` broadcast plus — for
        non-invariant load models — an exact walk per candidate group:
        the ``cached`` nodes (in-place activations) and the remaining
        unoccupied nodes (creations). Each group's argmin is exact; other
        entries may carry the latency plus a lower bound of the load.
        """
        active = np.asarray(active, dtype=np.int64)
        flat = self.flat
        if flat.size == 0:
            return np.zeros(self._substrate.n, dtype=np.float64)

        def latencies() -> np.ndarray:
            latency = np.minimum(
                self._candidate_matrix(), self.base_latency(active)
            ).sum(axis=1)
            latency += self._costs.wireless_hop * flat.size
            return latency

        latency = self._memoised("add", active, latencies)
        if self._load_is_invariant():
            return latency + self._invariant_load()
        return self._with_exact_shortlist(
            latency, active, np.asarray(cached, dtype=np.int64)
        )

    def _with_exact_shortlist(
        self, latency: np.ndarray, active: np.ndarray, cached: np.ndarray
    ) -> np.ndarray:
        """Addition family for convex loads: exact where a caller argmins.

        For non-invariant loads the true access cost is latency + load with
        load depending on the split. Every entry gets a *lower bound* of the
        load (perfect balancing across all servers, by convexity the
        cheapest possible split); :meth:`_lazy_exact_argmin` then walks the
        unoccupied nodes and, separately, the ``cached`` nodes with the
        other group masked, so the argmin within each group is exact.
        Entries for ``active`` members are ``exact_access_cost(active)``,
        computed once.
        """
        bound = latency + self._balanced_load_bound(active.size + 1)
        empty = bound.copy()
        empty[active] = np.inf
        empty[cached] = np.inf
        result = self._lazy_exact_argmin(empty, active)
        if cached.size:
            only_cached = np.full(bound.size, np.inf)
            only_cached[cached] = bound[cached]
            result[cached] = self._lazy_exact_argmin(only_cached, active)[cached]
        if active.size:
            result[active] = self.exact_access_cost(active)
        return result

    def _lazy_exact_argmin(self, bound: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Score ``base ∪ {u}`` exactly, in blocks, until the argmin is exact.

        Sound whenever ``bound[u]`` is at most the exact cost of
        ``base ∪ {u}`` (true for the convex built-in load models).
        ``+inf`` entries are masked: never scored, left ``+inf``. The
        finite entries are walked in stable bound order in blocks of
        ``_SHORTLIST_SIZE``, 2×, 4×, … candidates, each scored by one
        :meth:`_score_block` pass; the walk stops after the first block
        that leaves the result's argmin exactly scored. From then on no
        further score can move it (an exact value is at least its bound),
        so the argmin — the lowest index holding the least exact value —
        is the one a one-at-a-time walk would stop at. Entries not scored
        remain lower bounds.
        """
        result = bound.copy()
        order = np.argsort(bound, kind="stable")[: np.count_nonzero(np.isfinite(bound))]
        scored = np.zeros(result.size, dtype=bool)
        start, size = 0, _SHORTLIST_SIZE
        while start < order.size:
            block = order[start : start + size]
            result[block] = self._score_block(base, block)
            scored[block] = True
            if scored[np.argmin(result)]:
                break
            start += size
            size *= 2
        return result

    def _score_block(self, base: np.ndarray, us: np.ndarray) -> np.ndarray:
        """``exact_access_cost(np.append(base, u))`` for each ``u`` in ``us``.

        Bit-identical to the oracle, in one numpy pass per block. ``base``'s
        per-request argmin and minimum are taken once; a request moves to
        ``u`` only where ``D[u] < base_min`` — strict, as argmin over
        ``[base..., u]`` keeps the first minimum. Latencies are row sums of
        a C-contiguous ``(candidates, R)`` array (the same pairwise order as
        the oracle's 1-D sum); one ``bincount`` over (candidate, round,
        server) keys gives the counts, and each candidate's loads are
        summed as one contiguous row, as the oracle sums its ``(R, k+1)``.
        """
        base = np.asarray(base, dtype=np.int64)
        us = np.asarray(us, dtype=np.int64)
        m = self.flat.size
        scores = np.zeros(us.size, dtype=np.float64)
        if m == 0:
            return scores
        k = base.size
        if k:
            block = self._distance_block(base)
            owner = np.argmin(block, axis=0)
            nearest = block[owner, np.arange(m)]
        else:
            owner = np.zeros(m, dtype=np.int64)
            nearest = np.full(m, np.inf)

        n_rounds = self.n_rounds
        width = n_rounds * (k + 1)
        round_keys = self.round_ids * (k + 1)
        strengths = self._substrate.strengths
        hop = self._costs.wireless_hop * m
        rows = max(1, _BLOCK_ELEMS_MAX // max(m, width))
        for lo in range(0, us.size, rows):
            chunk = us[lo : lo + rows]
            c = chunk.size
            dist = self._distance_block(chunk)
            latency = np.minimum(dist, nearest, out=np.empty((c, m)))
            assignment = np.where(dist < nearest, k, owner)
            keys = assignment + round_keys
            keys += np.arange(0, c * width, width, dtype=np.int64)[:, None]
            counts = np.bincount(keys.ravel(), minlength=c * width).reshape(
                c, n_rounds, k + 1
            )
            servers = np.empty((c, k + 1), dtype=strengths.dtype)
            servers[:, :k] = strengths[base]
            servers[:, k] = strengths[chunk]
            loads = self._costs.load(servers[:, None, :], counts)
            scores[lo : lo + c] = (
                latency.sum(axis=1) + hop + loads.reshape(c, -1).sum(axis=1)
            )
        return scores

    def _balanced_load_bound(self, k: int) -> float:
        """Lower bound on window load: every round split evenly over k servers.

        Valid for convex, per-server load functions (all built-ins): by
        convexity the balanced split minimises the summed load.
        """
        sizes = self.round_sizes
        strength = float(self._substrate.strengths.max())
        even = sizes / k
        loads = self._costs.load(np.full(sizes.shape, strength), even)
        return float(loads.sum() * k) if sizes.size else 0.0

    def removal_costs(
        self, active: "np.ndarray | tuple[int, ...]"
    ) -> np.ndarray:
        """Window access cost of ``active − {active[i]}`` for each server index ``i``.

        Exact (there are only ``k`` candidates, so no shortlist is needed).
        A singleton placement cannot be reduced; its entry is ``+inf``.
        """
        active = np.asarray(active, dtype=np.int64)
        k = active.size
        if k <= 1:
            return np.full(k, np.inf)
        if self.flat.size == 0:
            return np.zeros(k, dtype=np.float64)
        return self._memoised("rem", active, lambda: self._removals(active)).copy()

    def _removals(self, active: np.ndarray) -> np.ndarray:
        # All k leave-one-out placements in one fused pass. Row set i is
        # exactly np.delete(active, i) in order, so per-column argmin
        # indices, counts and loads coincide with k separate
        # exact_access_cost calls.
        k = active.size
        m = self.flat.size
        n_rounds = self.n_rounds
        block = self._distance_block(active)
        rows = np.arange(k, dtype=np.int64)
        index = np.empty((k, k - 1), dtype=np.int64)
        for i in range(k):
            index[i, :i] = rows[:i]
            index[i, i:] = rows[i + 1 :]
        blocks = block[index]  # (k, k-1, m)
        assignment = blocks.argmin(axis=1)  # (k, m)
        latency = blocks.min(axis=1).sum(axis=1)  # same elements as the argmin gather
        latency += self._costs.wireless_hop * m

        keys = (
            rows[:, None] * (n_rounds * (k - 1))
            + self.round_ids[None, :] * (k - 1)
            + assignment
        )
        counts = np.bincount(
            keys.ravel(), minlength=k * n_rounds * (k - 1)
        ).reshape(k, n_rounds, k - 1)
        strengths = self._substrate.strengths[active][index]  # (k, k-1)
        loads = self._costs.load(strengths[:, None, :], counts)
        return latency + loads.reshape(k, -1).sum(axis=1)

    def migration_costs(
        self,
        active: "np.ndarray | tuple[int, ...]",
        server_index: int,
        cached: "np.ndarray | tuple[int, ...]" = (),
    ) -> np.ndarray:
        """Window access cost of moving server ``active[server_index]`` to each node.

        Entry ``u`` is the window access cost of
        ``active − {active[server_index]} + {u}``; entries for nodes already
        hosting a server (``active`` and ``cached``) are ``+inf`` (no
        co-location). Uses the same broadcast-plus-walk scheme as
        :meth:`addition_costs`, with the occupied nodes masked before the
        walk, so the argmin over the remaining targets is exact.
        """
        active = np.asarray(active, dtype=np.int64)
        if not 0 <= server_index < active.size:
            raise IndexError(f"server index {server_index} out of range")
        flat = self.flat
        if flat.size == 0 or self._load_is_invariant():
            return self.migration_costs_all(active, cached)[server_index]
        rest = np.delete(active, server_index)
        latency = np.minimum(
            self._candidate_matrix(), self.base_latency(rest)
        ).sum(axis=1)
        latency += self._costs.wireless_hop * flat.size
        bound = latency + self._balanced_load_bound(rest.size + 1)
        bound[active] = np.inf
        bound[np.asarray(cached, dtype=np.int64)] = np.inf
        return self._lazy_exact_argmin(bound, rest)

    def migration_costs_all(
        self,
        active: "np.ndarray | tuple[int, ...]",
        cached: "np.ndarray | tuple[int, ...]" = (),
    ) -> np.ndarray:
        """All migration families at once: row ``i`` is ``migration_costs(active, i, cached)``."""
        active = np.asarray(active, dtype=np.int64)
        if self.flat.size == 0:
            result = np.zeros((active.size, self._substrate.n), dtype=np.float64)
        elif self._load_is_invariant():
            result = self._migration_latencies(active) + self._invariant_load()
        else:
            result = np.empty((active.size, self._substrate.n), dtype=np.float64)
            for i in range(active.size):
                result[i] = self.migration_costs(active, i, cached)
            return result
        result[:, active] = np.inf
        result[:, np.asarray(cached, dtype=np.int64)] = np.inf
        return result

    def _migration_latencies(self, active: np.ndarray) -> np.ndarray:
        """Latency part of every migration family, ``(k, n)``."""
        return self._memoised(
            "mig", active, lambda: self._stacked_migration_latencies(active)
        )

    def _stacked_migration_latencies(self, active: np.ndarray) -> np.ndarray:
        candidates = self._candidate_matrix()
        block = self._distance_block(active)
        k, m = block.shape
        # Leave-one-out base latencies from prefix/suffix minima — min is
        # exact, so composing it this way is bitwise identical to a direct
        # min over the k-1 remaining rows.
        bases = np.empty((k, m), dtype=np.float64)
        if k == 1:
            bases[0] = np.inf
        else:
            prefix = np.minimum.accumulate(block, axis=0)
            suffix = np.minimum.accumulate(block[::-1], axis=0)[::-1]
            bases[0] = suffix[1]
            bases[-1] = prefix[-2]
            for i in range(1, k - 1):
                np.minimum(prefix[i - 1], suffix[i + 1], out=bases[i])

        n = self._substrate.n
        if k * n * m <= _STACK_ELEMS_MAX:
            stacked = np.minimum(candidates[None, :, :], bases[:, None, :])
            latencies = stacked.sum(axis=2)
        else:
            latencies = np.empty((k, n), dtype=np.float64)
            for i in range(k):
                latencies[i] = np.minimum(candidates, bases[i]).sum(axis=1)
        latencies += self._costs.wireless_hop * m
        return latencies


class DistanceGather:
    """Request rounds and their distance columns, gathered once.

    ``columns[v, j]`` is the distance from node ``v`` to the ``j``-th
    request of the flattened rounds — so round ``t`` is the contiguous
    column range ``offsets[t]:offsets[t+1]``, and any epoch window of a
    policy is likewise a column range. The column gather itself is lazy: a
    run whose policy never scans candidates never pays for it.

    Construction is the round loop's one node-bounds check: negative
    indices (which numpy fancy indexing would silently wrap) and indices
    beyond the substrate raise ``ValueError`` here, for materialised and
    streaming input alike.
    """

    def __init__(
        self,
        substrate: Substrate,
        costs: CostModel,
        trace: "Trace | Sequence[np.ndarray]",
    ) -> None:
        self.substrate = substrate
        self.costs = costs
        self.rounds = trace.rounds if isinstance(trace, Trace) else tuple(
            np.asarray(r, dtype=np.int64) for r in trace
        )
        self.sizes = np.asarray([r.size for r in self.rounds], dtype=np.int64)
        self.offsets = np.zeros(len(self.rounds) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=self.offsets[1:])
        self.flat = (
            np.concatenate(self.rounds)
            if self.offsets[-1]
            else np.zeros(0, dtype=np.int64)
        )
        if self.flat.size:
            lo, hi = int(self.flat.min()), int(self.flat.max())
            if lo < 0:
                raise ValueError(f"trace references negative node {lo}")
            if hi >= substrate.n:
                raise ValueError(
                    f"trace references node {hi} but substrate has "
                    f"{substrate.n} nodes"
                )
        self._columns: "np.ndarray | None" = None
        #: Round index of each flattened request, and per-round request
        #: counts as float64 (for load bounds).
        self.row_of = np.repeat(np.arange(len(self.rounds), dtype=np.int64), self.sizes)
        self.sizes_f64 = self.sizes.astype(np.float64)
        # Candidate-family memo shared by every window over this gather:
        # keyed (family, t0, t1, active-bytes). Only the per-window families
        # sibling policies share are kept; one-off exact scores are not.
        self._memo: dict = {}

    @property
    def n_rounds(self) -> int:
        """Number of rounds covered by the gather."""
        return len(self.rounds)

    @property
    def elements(self) -> int:
        """Size of the full column gather, ``n × requests``."""
        return self.substrate.n * int(self.flat.size)

    @property
    def has_columns(self) -> bool:
        """Whether the full column gather has been materialised."""
        return self._columns is not None

    @property
    def columns(self) -> np.ndarray:
        """``(n, total_requests)`` distance gather (computed on first use)."""
        if self._columns is None:
            # The same gather op a standalone RequestBatch uses: a column
            # fancy-index yields a Fortran-ordered array, and numpy's axis-1
            # reductions are only bitwise-reproducible when the operand
            # layout matches (np.take would give C order and shift the
            # pairwise summation order by a ULP on fractional weights).
            self._columns = self.substrate.distances[:, self.flat]
        return self._columns

    def memoised(self, key, compute: Callable):
        """The memo entry for ``key``, computed on a miss (bounded)."""
        value = self._memo.get(key)
        if value is None:
            value = compute()
            if len(self._memo) >= _MEMO_MAX:
                self._memo.clear()
            self._memo[key] = value
        return value

    def matches(self, substrate: Substrate, costs: CostModel) -> bool:
        """Whether the gather was built for exactly this substrate/costs."""
        return substrate is self.substrate and costs is self.costs

    def new_window(self) -> "GatherWindow":
        """A fresh empty request window over this gather (at round 0)."""
        return GatherWindow(self)


class GatherWindow(RequestBatch):
    """A :class:`RequestBatch` served from a :class:`DistanceGather`.

    ``add_round``/``clear`` move ``[t0, t1)`` pointers instead of copying
    request arrays; the requests and distance blocks are slices of the
    gather, and the candidate families go through the gather's shared memo.
    Every cost method is the base class's.
    """

    def __init__(self, gather: DistanceGather) -> None:
        self._substrate = gather.substrate
        self._costs = gather.costs
        self._gather = gather
        self._t0 = 0
        self._t1 = 0
        self._invariant = None
        self._inv_load = None

    def add_round(self, requests: np.ndarray) -> None:
        gather = self._gather
        t = self._t1
        if t >= gather.n_rounds or np.asarray(requests).size != int(
            gather.sizes[t]
        ):
            raise RuntimeError(
                "gather window out of sync: fed a round that does not match "
                "the gathered trace"
            )
        self._t1 = t + 1
        self._inv_load = None

    def clear(self) -> None:
        self._t0 = self._t1
        self._inv_load = None

    @property
    def n_rounds(self) -> int:
        return self._t1 - self._t0

    @property
    def _span(self) -> slice:
        offsets = self._gather.offsets
        return slice(int(offsets[self._t0]), int(offsets[self._t1]))

    @property
    def flat(self) -> np.ndarray:
        return self._gather.flat[self._span]

    @property
    def round_ids(self) -> np.ndarray:
        return self._gather.row_of[self._span] - self._t0

    @property
    def round_sizes(self) -> np.ndarray:
        return self._gather.sizes_f64[self._t0 : self._t1]

    def _distance_block(self, rows: np.ndarray) -> np.ndarray:
        return self._gather.columns[rows, self._span]

    def _candidate_matrix(self) -> np.ndarray:
        return self._gather.columns[:, self._span]

    def _memoised(self, kind: str, active: np.ndarray, compute: Callable):
        key = (kind, self._t0, self._t1, active.tobytes())
        return self._gather.memoised(key, compute)
