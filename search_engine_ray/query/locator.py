"""Term-addressed postings access: shard hash + per-shard term table.

The reference's dictionary maps every term to the exact index blocks
holding its postings (the reference's src/indexer/index_merge_writer.rs:
65-68,142, index_metadata.rs:3-48), so a query reads only its own blocks.
Here a read is two lookups and one ``pread``:

1. shard = poly_hash(term) % index_shards — the same deterministic hash the
   build used to partition runs/postings (pipelines/build.py), so one file
   lookup rules out (index_shards-1)/index_shards of the index;
2. the shard file's term table (stages/postings_file.py, loaded and
   checked once, lazily on the first read that touches the shard) gives
   the term's ``(offset, lean_nbytes, nbytes)``; the read takes
   ``lean_nbytes`` bytes for a lean read (doc ids and tfs) or ``nbytes``
   with positions.

``reads`` / ``bytes_read`` count the preads and their bytes, so tests and
callers can see what a query read.
"""

from __future__ import annotations

import os

from search_engine_ray.functions.hashing import poly_hash_str
from search_engine_ray.query.postings_codec import DamagedShardError, TermRecord
from search_engine_ray.stages.postings_file import ShardFile, shard_file


class PostingsLocator:
    """term → its record in one shard file (see module docstring)."""

    def __init__(self, postings_dir: str, n_shards: int | None = None):
        self.postings_dir = postings_dir
        if not n_shards:
            n_shards = sum(1 for name in os.listdir(postings_dir)
                           if name.startswith("shard="))
        self.n_shards = max(1, n_shards)
        self._shards: dict[int, ShardFile] = {}
        self.reads = 0
        self.bytes_read = 0

    def shard_of(self, term: str) -> int:
        return poly_hash_str(term) % self.n_shards

    def _shard(self, shard: int, term: str) -> ShardFile:
        sf = self._shards.get(shard)
        if sf is None:
            path = shard_file(self.postings_dir, shard)
            try:
                sf = ShardFile(path)
            except DamagedShardError as e:
                raise DamagedShardError(f"{e} (reading term {term!r})") from None
            except FileNotFoundError:
                raise FileNotFoundError(
                    f"{path}: postings shard file missing (reading term {term!r})") from None
            self._shards[shard] = sf
        return sf

    def read(self, term: str, columns: list[str] | None = None) -> TermRecord:
        """``term``'s record: its lean part when ``columns`` names no
        position column (``LEAN_COLUMNS``), else the whole record; an
        empty record when the index lacks the term."""
        positions = columns is None or "pos_gaps" in columns
        rec = self._shard(self.shard_of(term), term).read(term, positions)
        if rec.df:
            self.reads += 1
            self.bytes_read += len(rec.data)
        return rec
