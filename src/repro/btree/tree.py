"""The B+-tree proper: search, insert, delete, range scans, splits, merges.

The tree is a thin algorithmic layer over the buffer pool and pager: it never
talks to the device directly, so the same tree code runs unchanged on top of
every page-atomicity strategy (and on top of the B⁻-tree delta pager) — the
paper's observation that its techniques "confine within the I/O module" is
reflected directly in this module boundary.

Structural policy: splits are byte-balanced; underflow handling frees empty
pages and collapses single-child roots (lazy rebalancing in the style of
WiredTiger/LMDB rather than classic merge-at-half; all balance invariants
asserted by :meth:`BTree.check_invariants` hold either way).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.btree.buffer_pool import BufferPool
from repro.btree.node import (
    InternalNode,
    LeafNode,
    leaf_cell_size,
    node_for_page,
)
from repro.btree.page import (
    PAGE_HEADER_SIZE,
    PAGE_TRAILER_SIZE,
    PAGE_TYPE_OFFSET,
    Page,
    PageType,
)
from repro.btree.pager import Pager
from repro.errors import PageFullError, TreeError

#: Every level of every descent asks "is this an internal page?": the type
#: byte is compared with this plain int instead of building a ``PageType``.
_INTERNAL = int(PageType.INTERNAL)


class BTree:
    """A disk-backed B+-tree over a buffer pool and pager."""

    def __init__(
        self,
        pool: BufferPool,
        pager: Pager,
        page_size: int,
        lsn_source: Callable[[], int],
        root_id: Optional[int] = None,
        on_root_change: Optional[Callable[[], None]] = None,
    ) -> None:
        self.pool = pool
        self.pager = pager
        self.page_size = page_size
        self._lsn_source = lsn_source
        #: Called after the root id changes (root growth or collapse); the
        #: engine uses it to persist the new root pointer immediately, since
        #: a stale on-storage root pointer would strand half the tree after a
        #: crash.
        self._on_root_change = on_root_change
        # Records larger than a quarter page would make splits degenerate.
        self.max_record_bytes = (page_size - PAGE_HEADER_SIZE - PAGE_TRAILER_SIZE) // 4
        if root_id is None:
            root = LeafNode.create(page_size, pager.allocate_page_id())
            self.pool.add_new(root.page)
            self.root_id = root.page.page_id
        else:
            self.root_id = root_id

    # ------------------------------------------------------------- reading

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or None."""
        _, leaf, pinned = self._descend(key)
        try:
            return leaf.get(key)
        finally:
            self._unpin(pinned)

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def get_batch(self, keys: list[bytes]) -> list[Optional[bytes]]:
        """Point-lookup each key in order, collapsing same-leaf runs.

        Equivalent to ``[get(k) for k in keys]`` (see :meth:`apply_puts` for
        the collapse argument); reads never mutate, so only the repeated
        descent is saved.
        """
        out: list[Optional[bytes]] = []
        leaf: Optional[LeafNode] = None
        lower = b""
        upper: Optional[bytes] = None
        pinned: list[int] = []
        try:
            for key in keys:
                if leaf is None or key < lower or (upper is not None and key >= upper):
                    self._unpin(pinned)
                    pinned = []
                    path, leaf, pinned = self._descend(key)
                    lower, upper = self._routing_interval(path)
                out.append(leaf.get(key))
        finally:
            self._unpin(pinned)
        return out

    def scan(self, start_key: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Return up to ``count`` records with key >= ``start_key`` in order.

        Scans proceed leaf by leaf via fresh descents (no sibling pointers to
        maintain across splits); each leaf's routing upper bound lets the
        cursor step over leaves with no qualifying records.
        """
        out: list[tuple[bytes, bytes]] = []
        cursor = start_key
        while len(out) < count:
            path, leaf, pinned = self._descend(cursor)
            _, upper = self._routing_interval(path)
            try:
                batch = leaf.records_from(cursor, count - len(out))
            finally:
                self._unpin(pinned)
            if upper is not None and batch and batch[-1][0] >= upper:
                # Keys beyond the routing bound are stale residue of a crash
                # between split flushes; the live copies are in the right
                # sibling.  Keys are sorted, so the last one tells.
                batch = [record for record in batch if record[0] < upper]
            out += batch
            if len(out) >= count:
                return out
            if upper is None:
                return out  # rightmost leaf exhausted
            cursor = upper
        return out

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate every record in key order."""
        cursor = b""
        while True:
            batch = self.scan(cursor, 256)
            if not batch:
                return
            yield from batch
            if len(batch) < 256:
                return
            cursor = batch[-1][0] + b"\x00"

    # ------------------------------------------------------------- writing

    def put(self, key: bytes, value: bytes) -> bool:
        """Insert or update ``key``; returns True if the key is new."""
        return self.put_batch([(key, value)]) == 1

    def validate_puts(self, items: list[tuple[bytes, bytes]]) -> None:
        """Raise :class:`TreeError` unless every item can be stored in a leaf.

        A put cannot fail once this has passed, which is what lets the engine
        frame the redo records of a whole run before applying any of them.
        """
        max_record = self.max_record_bytes
        for key, value in items:
            if not key:
                raise TreeError("empty keys are reserved for internal routing")
            if value is None:
                raise TreeError("None is not a storable value; use delete()")
            if leaf_cell_size(key, value) > max_record:
                raise TreeError(
                    f"record of {leaf_cell_size(key, value)} bytes exceeds the "
                    f"{max_record}-byte limit for {self.page_size}-byte pages"
                )

    def put_batch(self, items: list[tuple[bytes, bytes]]) -> int:
        """Validate, then apply puts in order; returns the number of new keys.

        A bad item rejects the whole batch with no record applied and no LSN
        consumed.
        """
        self.validate_puts(items)
        return self.apply_puts(items)

    def apply_puts(self, items: list[tuple[bytes, bytes]]) -> int:
        """Apply validated puts in order, descending once per same-leaf run.

        The leaf and its routing interval ``[lower, upper)`` are kept from
        one descent and reused while keys stay inside it.  The state a caller
        can observe is that of one descent per key: repeating an identical
        all-hit descent only issues idempotent LRU refreshes (the path's
        relative recency order is unchanged, and nothing else is touched
        between the ops of a run), so no load, eviction, flush, or device
        write moves.  Any structural change (split, root growth) drops the
        cached leaf and the next key descends afresh.
        """
        inserted = 0
        lsn_source = self._lsn_source
        path: list[tuple[InternalNode, int]] = []
        leaf: Optional[LeafNode] = None
        lower = b""
        upper: Optional[bytes] = None
        pinned: list[int] = []
        try:
            for key, value in items:
                lsn = lsn_source()
                if leaf is None or key < lower or (upper is not None and key >= upper):
                    self._unpin(pinned)
                    pinned = []
                    path, leaf, pinned = self._descend(key)
                    if len(items) > 1:  # a lone put has no next key to route
                        lower, upper = self._routing_interval(path)
                try:
                    if leaf.put(key, value):
                        inserted += 1
                    self._stamp(leaf.page, lsn)
                except PageFullError:
                    target = self._split_leaf(path, leaf, key, lsn, pinned)
                    if target.put(key, value):
                        inserted += 1
                    self._stamp(target.page, lsn)
                    # The split moved records and may have reshaped ancestors;
                    # drop the cached route and re-descend for the next key.
                    self._unpin(pinned)
                    pinned = []
                    leaf = None
        finally:
            self._unpin(pinned)
        return inserted

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` if absent."""
        lsn = self._lsn_source()
        path, leaf, pinned = self._descend(key)
        try:
            leaf.delete(key)  # raises KeyNotFoundError
            self._stamp(leaf.page, lsn)
            if leaf.nslots == 0 and path:
                self._remove_empty_page(path, leaf.page.page_id, lsn, pinned)
        finally:
            self._unpin(pinned)

    # -------------------------------------------------------------- descent

    def _descend(
        self, key: bytes
    ) -> tuple[list[tuple[InternalNode, int]], LeafNode, list[int]]:
        """Walk to the leaf for ``key``: ``(path, leaf, pinned)``.

        ``path`` is the internal route ``[(node, child_index), ...]`` that
        splits and merges edit; ``pinned`` is every page id the walk pinned.
        """
        pinned = [self.root_id]
        path: list[tuple[InternalNode, int]] = []
        page = self.pool.get(self.root_id, pin=True)
        while page.buf[PAGE_TYPE_OFFSET] == _INTERNAL:
            node = InternalNode(page)
            index, child_id = node.route(key)
            path.append((node, index))
            page = self.pool.get(child_id, pin=True)
            pinned.append(child_id)
        return path, LeafNode(page), pinned

    @staticmethod
    def _routing_interval(
        path: list[tuple[InternalNode, int]]
    ) -> tuple[bytes, Optional[bytes]]:
        """``[lower, upper)`` of the leaf a fresh descent's ``path`` ends at.

        Any key inside it descends to that same leaf (absent structural
        changes), which is what lets a cursor reuse the leaf or step to the
        next one.  Read off the separator lists ``InternalNode.route`` decoded
        on the way down; the innermost bound on each side wins.
        """
        lower = b""
        upper: Optional[bytes] = None
        for node, index in path:
            keys = node.page.routing_keys
            if keys[index]:
                lower = keys[index]
            if index + 1 < len(keys):
                upper = keys[index + 1]
        return lower, upper

    def _unpin(self, pinned: list[int]) -> None:
        for page_id in pinned:
            self.pool.unpin(page_id)

    def _stamp(self, page: Page, lsn: int) -> None:
        page.lsn = lsn
        self.pool.mark_dirty(page.page_id)

    # --------------------------------------------------------------- splits

    def _split_leaf(
        self,
        path: list[tuple[InternalNode, int]],
        leaf: LeafNode,
        key: bytes,
        lsn: int,
        pinned: list[int],
    ) -> LeafNode:
        """Split ``leaf`` and link the new sibling; return the target for ``key``."""
        right = LeafNode.create(self.page_size, self.pager.allocate_page_id())
        separator = leaf.split_into(right)
        self.pool.add_new(right.page, pin=True)
        pinned.append(right.page.page_id)
        self._stamp(leaf.page, lsn)
        self._stamp(right.page, lsn)
        self._insert_into_parent(path, leaf.page.page_id, separator,
                                 right.page.page_id, lsn, pinned)
        return right if key >= separator else leaf

    def _insert_into_parent(
        self,
        path: list[tuple[InternalNode, int]],
        left_id: int,
        separator: bytes,
        right_id: int,
        lsn: int,
        pinned: list[int],
    ) -> None:
        if not path:
            self._grow_root(left_id, separator, right_id, lsn, pinned)
            return
        parent, _ = path[-1]
        try:
            parent.insert_separator(separator, right_id)
            self._stamp(parent.page, lsn)
            self.pager.require_flush_order(left_id, parent.page.page_id)
        except PageFullError:
            sibling = InternalNode.create(
                self.page_size, self.pager.allocate_page_id(), parent.page.level
            )
            promoted = parent.split_into(sibling)
            self.pool.add_new(sibling.page, pin=True)
            pinned.append(sibling.page.page_id)
            target = sibling if separator >= promoted else parent
            target.insert_separator(separator, right_id)
            self._stamp(parent.page, lsn)
            self._stamp(sibling.page, lsn)
            self.pager.require_flush_order(left_id, target.page.page_id)
            self._insert_into_parent(
                path[:-1], parent.page.page_id, promoted, sibling.page.page_id,
                lsn, pinned,
            )

    def _grow_root(
        self, left_id: int, separator: bytes, right_id: int, lsn: int,
        pinned: list[int],
    ) -> None:
        old_root = self.pool.get(left_id)
        new_root = InternalNode.create(
            self.page_size, self.pager.allocate_page_id(), old_root.level + 1
        )
        new_root.add_first_child(left_id)
        new_root.insert_separator(separator, right_id)
        self.pool.add_new(new_root.page, pin=True)
        pinned.append(new_root.page.page_id)
        self._stamp(new_root.page, lsn)
        self.root_id = new_root.page.page_id
        if self._on_root_change is not None:
            self._on_root_change()

    # --------------------------------------------------------------- merges

    def _remove_empty_page(
        self,
        path: list[tuple[InternalNode, int]],
        page_id: int,
        lsn: int,
        pinned: list[int],
    ) -> None:
        """Free an empty page and unlink it from its parent, cascading."""
        parent, index = path[-1]
        parent.remove_child(index)
        self._stamp(parent.page, lsn)
        if page_id in pinned:
            pinned.remove(page_id)
            self.pool.unpin(page_id)
        self.pool.drop(page_id)
        self.pager.free_page(page_id)
        if parent.nslots == 0 and len(path) > 1:
            self._remove_empty_page(path[:-1], parent.page.page_id, lsn, pinned)
        elif parent.nslots == 1 and len(path) == 1 and parent.page.page_id == self.root_id:
            self._collapse_root(parent, lsn, pinned)

    def _collapse_root(
        self, root: InternalNode, lsn: int, pinned: list[int]
    ) -> None:
        """Replace a single-child internal root with that child."""
        child_id = root.child_at(0)
        old_root_id = root.page.page_id
        self.root_id = child_id
        if self._on_root_change is not None:
            self._on_root_change()
        if old_root_id in pinned:
            pinned.remove(old_root_id)
            self.pool.unpin(old_root_id)
        self.pool.drop(old_root_id)
        self.pager.free_page(old_root_id)

    # ------------------------------------------------------------ invariants

    def depth(self) -> int:
        """Tree height (1 for a lone root leaf)."""
        depth = 1
        page = self.pool.get(self.root_id)
        while page.buf[PAGE_TYPE_OFFSET] == _INTERNAL:
            depth += 1
            page = self.pool.get(InternalNode(page).child_at(0))
        return depth

    def count_records(self) -> int:
        return sum(1 for _ in self.items())

    def check_invariants(self) -> None:
        """Assert structural invariants; raises :class:`TreeError` on violation.

        Checks: uniform leaf depth, sorted keys within every node, key
        ranges consistent with parent routing separators, and every decoded
        key or child-id list a page keeps equal to a fresh decode.
        """
        leaf_depths: set[int] = set()
        self._check_subtree(self.root_id, b"", None, 1, leaf_depths)
        if len(leaf_depths) > 1:
            raise TreeError(f"leaves at differing depths: {sorted(leaf_depths)}")

    def _check_subtree(
        self,
        page_id: int,
        lower: bytes,
        upper: Optional[bytes],
        depth: int,
        leaf_depths: set[int],
    ) -> None:
        page = self.pool.get(page_id, pin=True)
        try:
            node = node_for_page(page)
            keys = node.keys()
            if page.routing_keys is not None and page.routing_keys != keys:
                raise TreeError(f"page {page_id}: cached key list is stale")
            if page.child_ids is not None and page.child_ids != node.children():
                raise TreeError(f"page {page_id}: cached child ids are stale")
            real_keys = [k for k in keys if k != b""]
            if real_keys != sorted(set(real_keys)):
                raise TreeError(f"page {page_id}: keys unsorted or duplicated")
            if page.page_type == PageType.LEAF:
                leaf_depths.add(depth)
                for k in keys:
                    if k < lower or (upper is not None and k >= upper):
                        raise TreeError(
                            f"leaf {page_id}: key {k!r} outside [{lower!r}, {upper!r})"
                        )
                return
            node = InternalNode(page)
            if node.nslots == 0:
                raise TreeError(f"internal page {page_id} has no children")
            if node.key_at(0) != b"":
                raise TreeError(f"internal page {page_id}: slot 0 key must be empty")
            if depth > 1 and node.nslots < 2 and page_id == self.root_id:
                raise TreeError("root should have collapsed")
            for i in range(node.nslots):
                child_lower = max(lower, node.key_at(i)) if node.key_at(i) else lower
                child_upper = node.key_at(i + 1) if i + 1 < node.nslots else upper
                self._check_subtree(node.child_at(i), child_lower, child_upper,
                                    depth + 1, leaf_depths)
        finally:
            self.pool.unpin(page_id)
