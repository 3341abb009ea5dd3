"""In-page B+-tree node algorithms.

Two cell formats share the slotted-page machinery of :mod:`repro.btree.page`:

* **Leaf cells**: ``klen:u16 | vlen:u16 | key | value``
* **Internal cells**: ``klen:u16 | child:u64 | key``

Internal nodes hold ``n`` cells ``(key_i, child_i)``, sorted by key, with the
invariant that ``child_i`` covers keys in ``[key_i, key_{i+1})``.  The first
cell's key is always the empty string, which compares lower than every real
key, so no special leftmost-child field is needed.

All mutations operate directly on the page buffer and therefore feed the
runtime dirty-range tracker — this is the property the paper's localized page
modification logging (§3.2) builds on: a small record insert dirties only the
new cell, the shifted tail of the slot directory, and the header/trailer.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Optional

from repro.btree.page import PAGE_HEADER_SIZE, Page, PageType
from repro.errors import KeyNotFoundError, PageFormatError, PageFullError

_LEAF_CELL_HDR = struct.Struct("<HH")
_INT_CELL_HDR = struct.Struct("<HQ")

#: Minimum free bytes a split leaves in each half, so that a split always
#: produces room for the insert that triggered it.
_MAX_KEY = 2**16 - 1


def leaf_cell_size(key: bytes, value: bytes) -> int:
    """On-page bytes needed by a leaf cell for ``(key, value)``."""
    return _LEAF_CELL_HDR.size + len(key) + len(value)


def internal_cell_size(key: bytes) -> int:
    """On-page bytes needed by an internal cell for ``key``."""
    return _INT_CELL_HDR.size + len(key)


class _NodeBase:
    """Shared key/slot navigation for leaf and internal nodes."""

    __slots__ = ("page",)

    def __init__(self, page: Page) -> None:
        self.page = page

    def key_at(self, index: int) -> bytes:
        raise NotImplementedError

    @property
    def nslots(self) -> int:
        return self.page.nslots

    #: Byte offset from a cell's start to its key bytes (set per subclass so
    #: the hot binary-search loop can read keys without struct round-trips).
    _key_offset_in_cell = 0

    def _bisect(self, key: bytes) -> tuple[int, bool]:
        """Return ``(index, found)``: the slot of ``key`` or its insert point.

        Hand-inlined buffer access: this loop dominates every tree descent.
        """
        buf = self.page.buf
        lo = 0
        hi = buf[22] | (buf[23] << 8)  # nslots, little-endian u16 at offset 22
        koff = self._key_offset_in_cell
        while lo < hi:
            mid = (lo + hi) >> 1
            slot = 32 + (mid << 1)  # PAGE_HEADER_SIZE + 2*mid
            cell = buf[slot] | (buf[slot + 1] << 8)
            klen = buf[cell] | (buf[cell + 1] << 8)
            start = cell + koff
            probe = buf[start : start + klen]
            if probe == key:
                return mid, True
            if probe < key:
                lo = mid + 1
            else:
                hi = mid
        return lo, False

    def keys(self) -> list[bytes]:
        """Every key in slot order, from one pass over the slot directory."""
        page = self.page
        image = bytes(page.buf)  # slices of bytes are the keys themselves
        koff = self._key_offset_in_cell
        out = []
        for cell in struct.unpack_from(f"<{page.nslots}H", image, PAGE_HEADER_SIZE):
            start = cell + koff
            out.append(image[start : start + (image[cell] | (image[cell + 1] << 8))])
        return out

    def _compact(self) -> None:
        """Rewrite the cell area tightly, reclaiming dead bytes.

        Compaction rewrites most of the page, so it conservatively marks the
        whole image dirty.
        """
        page = self.page
        cells = [self._raw_cell(i) for i in range(page.nslots)]
        offset = page.size - 8  # trailer size; cells pack downward from here
        page._set_cell_start(page.size - 8)
        for index, cell in enumerate(cells):
            offset -= len(cell)
            page.buf[offset : offset + len(cell)] = cell
            page.set_slot_offset(index, offset)
        page._set_cell_start(offset)
        page._set_dead_bytes(0)
        page.mark_all_dirty()

    def _raw_cell(self, index: int) -> bytes:
        raise NotImplementedError

    def _ensure_room(self, needed: int) -> None:
        """Make ``needed + slot`` bytes of contiguous room or raise PageFullError."""
        page = self.page
        total = needed + 2  # the new slot directory entry
        if page.free_space >= total:
            return
        if page.reclaimable_space >= total:
            self._compact()
            return
        raise PageFullError(
            f"page {page.page_id}: need {total} bytes, "
            f"only {page.reclaimable_space} reclaimable"
        )


class LeafNode(_NodeBase):
    """Leaf-node operations over a :class:`Page` of type LEAF."""

    _key_offset_in_cell = _LEAF_CELL_HDR.size  # klen u16 | vlen u16 | key...

    @classmethod
    def create(cls, size: int, page_id: int) -> "LeafNode":
        return cls(Page(size, page_id, PageType.LEAF, level=0))

    # ------------------------------------------------------------- reading

    def _cell_parts(self, index: int) -> tuple[int, int, int]:
        offset = self.page.slot_offset(index)
        klen, vlen = _LEAF_CELL_HDR.unpack_from(self.page.buf, offset)
        return offset, klen, vlen

    def key_at(self, index: int) -> bytes:
        offset, klen, _ = self._cell_parts(index)
        start = offset + _LEAF_CELL_HDR.size
        return bytes(self.page.buf[start : start + klen])

    def value_at(self, index: int) -> bytes:
        offset, klen, vlen = self._cell_parts(index)
        start = offset + _LEAF_CELL_HDR.size + klen
        return bytes(self.page.buf[start : start + vlen])

    def _raw_cell(self, index: int) -> bytes:
        offset, klen, vlen = self._cell_parts(index)
        return bytes(self.page.buf[offset : offset + _LEAF_CELL_HDR.size + klen + vlen])

    def _search(self, key: bytes) -> tuple[int, bool]:
        """:meth:`_bisect`'s answer, from the page's decoded key list once
        the leaf has earned one.

        The first search after a slot-directory change runs the byte
        :meth:`_bisect`; the second decodes :attr:`Page.routing_keys`, which
        every later search bisects in C.  A cold leaf that is loaded,
        searched once and evicted so pays for no decode.
        """
        page = self.page
        keys = page.routing_keys
        if keys is None:
            if not page.searched:
                page.searched = True
                return self._bisect(key)
            keys = page.routing_keys = self.keys()
        index = bisect_left(keys, key)
        return index, index < len(keys) and keys[index] == key

    def get(self, key: bytes) -> Optional[bytes]:
        index, found = self._search(key)
        if not found:
            return None
        buf = self.page.buf
        slot = PAGE_HEADER_SIZE + (index << 1)
        cell = buf[slot] | (buf[slot + 1] << 8)
        klen, vlen = _LEAF_CELL_HDR.unpack_from(buf, cell)
        start = cell + _LEAF_CELL_HDR.size + klen
        return bytes(buf[start : start + vlen])

    def records(self) -> list[tuple[bytes, bytes]]:
        """Every record in key order."""
        return self._records_in(0, self.page.nslots)

    def records_from(self, start_key: bytes, limit: int) -> list[tuple[bytes, bytes]]:
        """Up to ``limit`` records with key >= ``start_key``, in key order;
        the start is found by :meth:`_search`."""
        return self._records_in(self._search(start_key)[0], limit)

    def _records_in(self, first: int, limit: int) -> list[tuple[bytes, bytes]]:
        """Up to ``limit`` records of slots ``first..`` in key order, built
        in one pass over a snapshot of the page: the slot directory is
        unpacked once, each cell header once."""
        count = min(self.page.nslots - first, limit)
        if count <= 0:
            return []
        image = bytes(self.page.buf)  # slices of bytes are the keys and values themselves
        unpack_header = _LEAF_CELL_HDR.unpack_from
        hdr = _LEAF_CELL_HDR.size
        out = []
        append = out.append
        for cell in struct.unpack_from(f"<{count}H", image, PAGE_HEADER_SIZE + (first << 1)):
            klen, vlen = unpack_header(image, cell)
            key_end = cell + hdr + klen
            append((image[cell + hdr : key_end], image[key_end : key_end + vlen]))
        return out

    def used_bytes(self) -> int:
        """Live cell + slot bytes (occupancy accounting)."""
        return sum(
            _LEAF_CELL_HDR.size + klen + vlen + 2
            for _, klen, vlen in (self._cell_parts(i) for i in range(self.page.nslots))
        )

    # ------------------------------------------------------------- writing

    def put(self, key: bytes, value: bytes) -> bool:
        """Insert or update; returns True if the key was newly inserted.

        Raises :class:`PageFullError` when the record cannot fit even after
        compaction — the tree layer then splits this node.
        """
        if len(key) > _MAX_KEY or len(value) > _MAX_KEY:
            raise PageFormatError("key/value longer than 64KB is unsupported")
        index, found = self._search(key)
        if found:
            self._update_at(index, key, value)
            return False
        self._insert_at(index, key, value)
        return True

    def _insert_at(self, index: int, key: bytes, value: bytes) -> None:
        """Store a new cell for ``(key, value)`` in slot ``index``, its sorted
        position (compaction rewrites cells in slot order, so the position
        found before :meth:`_ensure_room` still holds after it)."""
        needed = leaf_cell_size(key, value)
        self._ensure_room(needed)
        page = self.page
        offset = page.allocate_cell(needed)
        page.write_cell(offset, _LEAF_CELL_HDR.pack(len(key), len(value)) + key + value)
        page.insert_slot(index, offset)

    def _update_at(self, index: int, key: bytes, value: bytes) -> None:
        """Replace the value in slot ``index``, whose key is ``key``."""
        page = self.page
        buf = page.buf
        slot = PAGE_HEADER_SIZE + (index << 1)
        cell = buf[slot] | (buf[slot + 1] << 8)
        vlen = buf[cell + 2] | (buf[cell + 3] << 8)
        if vlen == len(value):
            # Same-size update: overwrite the value bytes in place — the most
            # localized modification possible.
            start = cell + _LEAF_CELL_HDR.size + len(key)
            buf[start : start + vlen] = value
            page.mark_dirty(start, start + vlen)
            return
        page.add_dead_bytes(_LEAF_CELL_HDR.size + len(key) + vlen)
        page.remove_slot(index)
        self._insert_at(index, key, value)

    def delete(self, key: bytes) -> None:
        index, found = self._bisect(key)
        if not found:
            raise KeyNotFoundError(repr(key))
        self.delete_at(index)

    def delete_at(self, index: int) -> None:
        _, klen, vlen = self._cell_parts(index)
        self.page.add_dead_bytes(_LEAF_CELL_HDR.size + klen + vlen)
        self.page.remove_slot(index)

    def split_into(self, right: "LeafNode") -> bytes:
        """Move the upper half (by bytes) into ``right``; return the separator.

        The separator is the first key of the right node; parent routing uses
        ``key >= separator -> right``.
        """
        n = self.page.nslots
        if n < 2:
            raise PageFormatError("cannot split a page with fewer than 2 records")
        sizes = [len(self._raw_cell(i)) + 2 for i in range(n)]
        total = sum(sizes)
        acc, mid = 0, n - 1
        for i in range(n):
            acc += sizes[i]
            if acc >= total // 2 and i + 1 < n:
                mid = i + 1
                break
        separator = self.key_at(mid)
        # The moved records are already sorted and ``right`` is fresh, so the
        # raw cells can be appended directly — byte-identical to re-inserting
        # through ``right.put`` (same allocate/write/slot sequence on an empty
        # page) without the per-record binary search and cell repacking.
        rpage = right.page
        for i in range(mid, n):
            cell = self._raw_cell(i)
            offset = rpage.allocate_cell(len(cell))
            rpage.write_cell(offset, cell)
            rpage.insert_slot(rpage.nslots, offset)
        for i in range(n - 1, mid - 1, -1):
            self.delete_at(i)
        self._compact()
        return separator


class InternalNode(_NodeBase):
    """Internal-node operations over a :class:`Page` of type INTERNAL."""

    _key_offset_in_cell = _INT_CELL_HDR.size  # klen u16 | child u64 | key...

    @classmethod
    def create(cls, size: int, page_id: int, level: int) -> "InternalNode":
        if level < 1:
            raise PageFormatError("internal nodes live at level >= 1")
        return cls(Page(size, page_id, PageType.INTERNAL, level=level))

    # ------------------------------------------------------------- reading

    def _cell_parts(self, index: int) -> tuple[int, int, int]:
        offset = self.page.slot_offset(index)
        klen, child = _INT_CELL_HDR.unpack_from(self.page.buf, offset)
        return offset, klen, child

    def key_at(self, index: int) -> bytes:
        offset, klen, _ = self._cell_parts(index)
        start = offset + _INT_CELL_HDR.size
        return bytes(self.page.buf[start : start + klen])

    def child_at(self, index: int) -> int:
        return self._cell_parts(index)[2]

    def _raw_cell(self, index: int) -> bytes:
        offset, klen, _ = self._cell_parts(index)
        return bytes(self.page.buf[offset : offset + _INT_CELL_HDR.size + klen])

    def children(self) -> list[int]:
        """Every child id in slot order, from one pass over the slot directory."""
        page = self.page
        buf = page.buf
        unpack_header = _INT_CELL_HDR.unpack_from
        return [unpack_header(buf, cell)[1]
                for cell in struct.unpack_from(f"<{page.nslots}H", buf, PAGE_HEADER_SIZE)]

    def route(self, key: bytes) -> tuple[int, int]:
        """``(index, child id)`` of the child whose key range contains ``key``.

        Routes through the page's decoded separator and child-id lists (see
        :attr:`Page.routing_keys` and :attr:`Page.child_ids` for when they
        are dropped): an internal node is searched on every descent through
        it, so decoding it once turns the byte-indexing :meth:`_bisect` loop
        and the slot unpack into one C bisect and one list index.
        """
        page = self.page
        keys = page.routing_keys
        if keys is None:
            keys = page.routing_keys = self.keys()
        children = page.child_ids
        if children is None:
            children = page.child_ids = self.children()
        index = bisect_right(keys, key) - 1
        if index < 0:  # slot 0's empty key sorts below every key: no slots
            raise PageFormatError("internal node has no children")
        return index, children[index]

    def child_for(self, key: bytes) -> int:
        return self.route(key)[1]

    # ------------------------------------------------------------- writing

    def add_first_child(self, child_id: int) -> None:
        """Install the leftmost child (empty separator key)."""
        if self.page.nslots != 0:
            raise PageFormatError("leftmost child must be installed first")
        self._insert_cell(0, b"", child_id)

    def insert_separator(self, key: bytes, child_id: int) -> None:
        """Insert a routing entry ``key -> child_id`` (from a child split)."""
        if not key:
            raise PageFormatError("separator keys must be non-empty")
        index, found = self._bisect(key)
        if found:
            raise PageFormatError(f"duplicate separator {key!r}")
        self._insert_cell(index, key, child_id)

    def _insert_cell(self, index: int, key: bytes, child_id: int) -> None:
        needed = internal_cell_size(key)
        self._ensure_room(needed)
        offset = self.page.allocate_cell(needed)
        self.page.write_cell(offset, _INT_CELL_HDR.pack(len(key), child_id) + key)
        self.page.insert_slot(index, offset)

    def remove_separator_at(self, index: int) -> None:
        _, klen, _ = self._cell_parts(index)
        self.page.add_dead_bytes(_INT_CELL_HDR.size + klen)
        self.page.remove_slot(index)

    def remove_child(self, index: int) -> None:
        """Remove the routing entry at ``index``, keeping the invariant that
        slot 0 carries the empty (minimum) key.

        Removing the leftmost entry promotes the next entry to leftmost by
        rewriting its key as empty.
        """
        self.remove_separator_at(index)
        if index == 0 and self.page.nslots > 0 and self.key_at(0) != b"":
            child = self.child_at(0)
            self.remove_separator_at(0)
            self._insert_cell(0, b"", child)

    def replace_child_at(self, index: int, child_id: int) -> None:
        offset, _, _ = self._cell_parts(index)
        struct.pack_into("<Q", self.page.buf, offset + 2, child_id)
        self.page.child_ids = None
        self.page.mark_dirty(offset + 2, offset + 10)

    def split_into(self, right: "InternalNode") -> bytes:
        """Split; return the key promoted to the parent.

        The promoted key routes to ``right``, whose first cell becomes its
        (implicit-minimum) leftmost child.
        """
        n = self.page.nslots
        if n < 3:
            raise PageFormatError("cannot split an internal node with fewer than 3 cells")
        mid = n // 2
        promoted = self.key_at(mid)
        right.add_first_child(self.child_at(mid))
        for i in range(mid + 1, n):
            right.insert_separator(self.key_at(i), self.child_at(i))
        for i in range(n - 1, mid - 1, -1):
            self.remove_separator_at(i)
        self._compact()
        return promoted

    def used_bytes(self) -> int:
        return sum(
            _INT_CELL_HDR.size + klen + 2
            for _, klen, _ in (self._cell_parts(i) for i in range(self.page.nslots))
        )


def node_for_page(page: Page):
    """Wrap ``page`` in the node class matching its type."""
    if page.page_type == PageType.LEAF:
        return LeafNode(page)
    if page.page_type == PageType.INTERNAL:
        return InternalNode(page)
    raise PageFormatError(f"page {page.page_id} is not a tree node ({page.page_type})")
