"""Property suite for the scatter-gather merge layer (hypothesis).

Four families, mirroring the merge paths in
:mod:`repro.server.sharded`:

* the k-way sorted merge reproduces the serial engine's exact ORDER BY
  semantics (ties, duplicates, NULLs-last ascending / NULLs-first
  descending, uneven and empty shards), and the one-sort ordinal order
  equals the ordinal-only merge;
* Paillier partial sums recombine by ciphertext multiplication to the
  single-store reference;
* DET group keys merge exactly: same groups, same first-encounter
  order, same re-aggregated values as one serial store;
* plaintext rows and ledger byte counts are shard-count-invariant
  across N ∈ {1, 2, 3, 8}.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import generate_keypair
from repro.engine.executor import _SortKey
from repro.server import make_backend, make_sharded_backend
from repro.server.sharded import DirectedKey, merge_sorted_rows, sort_by_ordinal
from repro.sql import ast
from repro.engine.schema import schema

# -- strategies -------------------------------------------------------------

#: Sortable cell values: small ints force ties and duplicates; None
#: exercises the NULL ordering rules.
sort_values = st.one_of(st.none(), st.integers(min_value=-4, max_value=4))

#: A row of 1-3 sort keys (every row in one example has the same width).
key_widths = st.integers(min_value=1, max_value=3)


@st.composite
def merge_cases(draw):
    """Rows + per-key directions + an arbitrary row→shard assignment."""
    width = draw(key_widths)
    directions = draw(
        st.lists(st.booleans(), min_size=width, max_size=width)
    )
    rows = draw(
        st.lists(
            st.tuples(*[sort_values for _ in range(width)]),
            min_size=0,
            max_size=40,
        )
    )
    shard_count = draw(st.sampled_from([1, 2, 3, 8]))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=shard_count - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    return width, directions, rows, shard_count, assignment


def serial_order(rows_with_ordinals, directions):
    """The engine's reference sort: repeated stable passes, last key
    first, ``_SortKey`` per value (NULLs last ascending), ordinals as the
    final implied tiebreak via initial order."""
    ordered = sorted(rows_with_ordinals, key=lambda row: row[-1])
    for index in reversed(range(len(directions))):
        ordered.sort(
            key=lambda row: _SortKey(row[index]),
            reverse=not directions[index],
        )
    return ordered


class TestSortedMerge:
    @given(merge_cases())
    @settings(max_examples=200, deadline=None)
    def test_kway_merge_equals_serial_sort(self, case):
        width, directions, rows, shard_count, assignment = case
        tagged = [row + (ordinal,) for ordinal, row in enumerate(rows)]
        shards = [[] for _ in range(shard_count)]
        for row, target in zip(tagged, assignment):
            shards[target].append(row)
        key_slots = list(enumerate(directions))

        def shard_sort_key(row):
            return tuple(
                DirectedKey(row[slot], asc) for slot, asc in key_slots
            ) + (row[-1],)

        for shard in shards:
            shard.sort(key=shard_sort_key)
        merged = list(merge_sorted_rows(shards, key_slots, width))
        assert merged == serial_order(tagged, directions)

    @given(merge_cases(), st.integers(min_value=0, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_limit_trims_after_the_merge(self, case, limit):
        width, directions, rows, shard_count, assignment = case
        tagged = [row + (ordinal,) for ordinal, row in enumerate(rows)]
        shards = [[] for _ in range(shard_count)]
        for row, target in zip(tagged, assignment):
            shards[target].append(row)
        key_slots = list(enumerate(directions))

        def shard_sort_key(row):
            return tuple(
                DirectedKey(row[slot], asc) for slot, asc in key_slots
            ) + (row[-1],)

        for shard in shards:
            shard.sort(key=shard_sort_key)
        merged = list(merge_sorted_rows(shards, key_slots, width, limit))
        assert merged == serial_order(tagged, directions)[:limit]

    @given(merge_cases(), st.one_of(st.none(), st.integers(0, 10)))
    @settings(max_examples=100, deadline=None)
    def test_ordinal_sort_equals_ordinal_merge(self, case, limit):
        # The general gather sorts the concatenated shard rows by ordinal
        # instead of k-way merging them: the same total order, because
        # ordinals are unique.
        width, _, rows, shard_count, assignment = case
        shards = [[] for _ in range(shard_count)]
        for ordinal, (row, target) in enumerate(zip(rows, assignment)):
            shards[target].append(row + (ordinal,))
        merged = list(merge_sorted_rows(shards, (), width, limit))
        assert sort_by_ordinal(shards, width)[:limit] == merged

    def test_directed_key_null_rules(self):
        # Ascending: every value < NULL; descending: NULL < every value.
        assert DirectedKey(1, True) < DirectedKey(None, True)
        assert not DirectedKey(None, True) < DirectedKey(1, True)
        assert DirectedKey(None, False) < DirectedKey(1, False)
        assert not DirectedKey(1, False) < DirectedKey(None, False)
        assert DirectedKey(None, True) == DirectedKey(None, False)
        assert not DirectedKey(None, True) < DirectedKey(None, True)


# -- Paillier partial-sum recombination -------------------------------------


@functools.lru_cache(maxsize=1)
def _keypair():
    # One small deterministic keypair for the whole suite: keygen is the
    # expensive part, the property is about recombination.
    return generate_keypair(modulus_bits=256, seed=b"shard-merge-suite")


class TestPaillierRecombination:
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=1 << 32),
                min_size=0,
                max_size=6,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_partial_sums_multiply_to_reference(self, per_shard):
        public, private = _keypair()
        everything = [v for shard in per_shard for v in shard]
        # Per-shard partial: the homomorphic sum of that shard's values.
        partials = []
        for shard in per_shard:
            total = public.encrypt_zero()
            for value in shard:
                total = public.add(total, public.encrypt(value))
            partials.append(total)
        combined = functools.reduce(public.add, partials)
        # Single-store reference: one fold over all values, in order.
        reference = public.encrypt_zero()
        for value in everything:
            reference = public.add(reference, public.encrypt(value))
        assert private.decrypt(combined) == sum(everything)
        assert private.decrypt(combined) == private.decrypt(reference)


# -- DET group-key merge + shard-count invariance ---------------------------

group_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),  # k_det
        st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),  # v
    ),
    min_size=0,
    max_size=48,
)

GROUP_QUERY = ast.Select(
    items=(
        ast.SelectItem(ast.Column("k_det"), "k"),
        ast.SelectItem(ast.FuncCall("count", star=True), "n"),
        ast.SelectItem(ast.FuncCall("sum", (ast.Column("v"),)), "s"),
        ast.SelectItem(ast.FuncCall("min", (ast.Column("v"),)), "lo"),
        ast.SelectItem(ast.FuncCall("grp", (ast.Column("v"),)), "g"),
        ast.SelectItem(
            ast.FuncCall("count", (ast.Column("v"),), distinct=True), "nd"
        ),
    ),
    from_items=(ast.TableName("t"),),
    group_by=(ast.Column("k_det"),),
)

SCAN_QUERY = ast.Select(
    items=(ast.SelectItem(ast.Column("k_det")), ast.SelectItem(ast.Column("v"))),
    from_items=(ast.TableName("t"),),
)

ORDER_QUERY = ast.Select(
    items=(ast.SelectItem(ast.Column("v")), ast.SelectItem(ast.Column("k_det"))),
    from_items=(ast.TableName("t"),),
    order_by=(
        ast.OrderItem(ast.Column("v"), False),
        ast.OrderItem(ast.Column("k_det")),
    ),
    limit=11,
)

TABLE = schema("t", ("k_det", "any"), ("v", "any"))


def _serial_reference(rows):
    backend = make_backend("memory", name="ref")
    backend.create_table(TABLE)
    backend.insert_rows("t", rows)
    return backend


class TestGroupMergeAndInvariance:
    @given(group_rows, st.sampled_from([1, 2, 3, 8]))
    @settings(max_examples=60, deadline=None)
    def test_det_group_merge_matches_serial(self, rows, shard_count):
        serial = _serial_reference(rows)
        sharded = make_sharded_backend("memory", shard_count, name="p")
        sharded.create_table(TABLE)
        sharded.insert_rows("t", rows)
        want = serial.execute(GROUP_QUERY)
        got = sharded.execute(GROUP_QUERY)
        assert got.rows == want.rows  # Values AND first-encounter order.
        assert sharded.last_stats.bytes_scanned == serial.last_stats.bytes_scanned

    @given(group_rows)
    @settings(max_examples=40, deadline=None)
    def test_rows_and_ledger_bytes_shard_count_invariant(self, rows):
        serial = _serial_reference(rows)
        reference = {
            query: (serial.execute(query).rows, serial.last_stats.bytes_scanned)
            for query in (SCAN_QUERY, ORDER_QUERY, GROUP_QUERY)
        }
        for shard_count in (1, 2, 3, 8):
            sharded = make_sharded_backend(
                "memory", shard_count, name=f"inv{shard_count}"
            )
            sharded.create_table(TABLE)
            sharded.insert_rows("t", rows)
            assert sharded.table_bytes("t") == serial.table_bytes("t")
            for query, (want_rows, want_bytes) in reference.items():
                assert sharded.execute(query).rows == want_rows
                assert sharded.last_stats.bytes_scanned == want_bytes
