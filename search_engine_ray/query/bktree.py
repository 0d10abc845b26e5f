"""BK-tree over Levenshtein distance for fuzzy term lookup.

Mirrors the reference's use of the ``bk-tree`` crate
(/root/reference/src/my_bk_tree/mod.rs:3-26: add terms, find(key, d) returns
all terms within edit distance d). Built once per query engine from the
dictionary's terms (index_metadata.rs:33-35).

The tree is the one sequential insertion builds (each term walks down from
the root along the edge labelled with its distance to each node, and becomes
a new child where that edge is missing), but it is built one tree LEVEL at a
time: every pending term carries its current parent node, one batched
Levenshtein call per level gives all (parent, term) distances, and per
(parent, distance) group the earliest term becomes the child while the rest
descend into it. It is held as flat arrays; ``find`` likewise evaluates a
whole frontier of nodes per kernel call.
"""

from __future__ import annotations

import numpy as np

#: DP cells (rows × padded width) per batched-kernel call; rows are grouped
#: by width first, so one very long term widens only its own chunk
_CELL_BUDGET = 1 << 17


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, all cost 1)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # numpy row-rolling DP; the left-to-right insertion chain
    # cur[j] = min(cand[j'], j' <= j) + (j - j') is a prefix-min after
    # subtracting the column index (unit costs make it exact).
    prev = np.arange(len(b) + 1)
    bb = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    cols = np.arange(len(b) + 1)
    for i, ca in enumerate(a):
        cand = np.empty(len(b) + 1, dtype=np.int64)
        cand[0] = i + 1
        np.minimum(prev[:-1] + (bb != ord(ca)), prev[1:] + 1, out=cand[1:])
        prev = np.minimum.accumulate(cand - cols) + cols
    return int(prev[-1])


def levenshtein_rows(a: np.ndarray, la: np.ndarray, b: np.ndarray,
                     lb: np.ndarray) -> np.ndarray:
    """Row-wise edit distance of ``a[r, :la[r]]`` and ``b[r, :lb[r]]`` over
    0-padded code matrices (``a.shape[1] >= la.max()``, ``b.shape[1] >=
    lb.max()``) → int64 per row. The scalar :func:`levenshtein` DP, one
    key character per step for every row at once; a row is frozen once its
    key is used up, and the padding never reaches column ``lb[r]``."""
    n = len(la)
    out = np.empty(n, np.int64)
    if n == 0:
        return out
    # key length ascending: the rows still live at step i are a suffix
    order = np.argsort(la, kind="stable")
    a, la, b, lb = a[order], la[order], b[order], lb[order]
    cols = np.arange(b.shape[1] + 1, dtype=np.int32)
    prev = np.tile(cols, (n, 1))
    steps = int(la[-1])
    starts = np.searchsorted(la, np.arange(steps), side="right")
    for i in range(steps):
        s = starts[i]
        p = prev[s:]
        cand = np.empty_like(p)
        cand[:, 0] = i + 1
        np.minimum(p[:, :-1] + (b[s:] != a[s:, i, None]), p[:, 1:] + 1,
                   out=cand[:, 1:])
        cand -= cols
        np.minimum.accumulate(cand, axis=1, out=cand)
        cand += cols
        p[...] = cand
    out[order] = prev[np.arange(n), lb]
    return out


def _encode(terms: list[str]):
    """Code store (utf-32 code points, start offset, length per term)."""
    lens = np.fromiter(map(len, terms), np.int64, len(terms))
    buf = np.frombuffer("".join(terms).encode("utf-32-le"), np.uint32)
    return buf, np.cumsum(lens) - lens, lens


def _pad(store, rows: np.ndarray, width: int) -> np.ndarray:
    buf, offs, lens = store
    cols = np.arange(width)
    keep = cols < lens[rows][:, None]
    out = np.zeros((len(rows), width), np.uint32)
    out[keep] = buf[(offs[rows][:, None] + cols)[keep]]
    return out


def _distances(sa, ia: np.ndarray, sb, ib: np.ndarray) -> np.ndarray:
    """Edit distance of stored term ``ia[r]`` of ``sa`` to ``ib[r]`` of
    ``sb`` per row; the kernel loops over the ``sa`` side. Rows run in
    chunks of similar width under ``_CELL_BUDGET`` cells."""
    la, lb = sa[2][ia], sb[2][ib]
    order = np.lexsort((la, lb))
    width = lb[order] + 1
    out = np.empty(len(ia), np.int64)
    s, n = 0, len(order)
    while s < n:
        # widest prefix of rows whose count × (last, widest) width fits
        m = min(n - s, _CELL_BUDGET // int(width[s]) + 1)
        cells = np.arange(1, m + 1) * width[s:s + m]
        e = s + max(1, int(np.searchsorted(cells, _CELL_BUDGET, "right")))
        rows = order[s:e]
        ra, rb = ia[rows], ib[rows]
        out[rows] = levenshtein_rows(
            _pad(sa, ra, int(la[rows].max())), la[rows],
            _pad(sb, rb, int(lb[rows].max())), lb[rows])
        s = e
    return out


class BKTree:
    """BK-tree (children keyed by distance to their parent's term) held as
    flat arrays: node → term row in the code store, node → edge distance to
    its parent, and each node's children as one contiguous id range
    (``_child_ptr``, CSR by parent — level-wise building makes every node's
    children consecutive and parents non-decreasing). Node 0 is the root,
    the first term; repeated terms are dropped."""

    __slots__ = ("_store", "_row", "_edge", "_child_ptr")

    def __init__(self, terms=()):
        terms = list(terms)
        self._store = store = _encode(terms)
        n = len(terms)
        row = np.zeros(n, np.int64)
        edge = np.zeros(n, np.int64)
        parent = np.full(n, -1, np.int64)
        n_nodes = min(n, 1)
        mem = np.arange(1, n, dtype=np.int64)  # pending terms, insertion order
        par = np.zeros(n - n_nodes, np.int64)  # their current parent node
        lens = store[2]
        while len(mem):
            pt = row[par]
            short = lens[pt] <= lens[mem]  # loop the kernel over the shorter
            d = _distances(store, np.where(short, pt, mem),
                           store, np.where(short, mem, pt))
            keep = d > 0
            mem, par, d = mem[keep], par[keep], d[keep]
            # stable: within a (parent, d) group terms stay in insertion
            # order, and the first of each group is the one sequential
            # insertion would have made the child on that edge
            order = np.argsort(par * (int(d.max(initial=0)) + 1) + d,
                               kind="stable")
            mem, par, d = mem[order], par[order], d[order]
            first = np.ones(len(mem), bool)
            first[1:] = (par[1:] != par[:-1]) | (d[1:] != d[:-1])
            new = np.arange(n_nodes, n_nodes + int(first.sum()))
            row[new], parent[new], edge[new] = mem[first], par[first], d[first]
            n_nodes += len(new)
            rest = ~first
            mem, par = mem[rest], new[np.cumsum(first)[rest] - 1]
        self._row, self._edge = row[:n_nodes], edge[:n_nodes]
        self._child_ptr = np.searchsorted(
            parent[1:n_nodes], np.arange(n_nodes + 1), side="left") + 1

    def __len__(self) -> int:
        return len(self._row)

    def _term(self, node: int) -> str:
        buf, offs, lens = self._store
        o = offs[self._row[node]]
        return buf[o:o + lens[self._row[node]]].tobytes().decode("utf-32-le")

    def find(self, key: str, max_dist: int, with_distance: bool = False):
        """All stored terms within ``max_dist`` of key (unordered); with
        ``with_distance`` → [(term, distance)]."""
        if not len(self._row):
            return []
        ks = _encode([key])
        hits, hit_d = [], []
        front = np.zeros(1, np.int64)
        while len(front):
            d = _distances(ks, np.zeros(len(front), np.int64),
                           self._store, self._row[front])
            ok = d <= max_dist
            hits.append(front[ok])
            hit_d.append(d[ok])
            lo = self._child_ptr[front]
            cnt = self._child_ptr[front + 1] - lo
            total = int(cnt.sum())
            kids = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(total)
            front = kids[np.abs(self._edge[kids] - np.repeat(d, cnt)) <= max_dist]
        nodes, dist = np.concatenate(hits), np.concatenate(hit_d)
        if with_distance:
            return [(self._term(v), int(x)) for v, x in zip(nodes, dist)]
        return [self._term(v) for v in nodes]
