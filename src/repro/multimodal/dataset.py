"""The Fig 7 dual-table multimodal layout, end to end.

Meta table (Bullion, columnar): text hash, tags, captions, audio bytes,
quality score, frame index (``list<int64>``), **highlight frames inlined
as binary columns**, and a (block_offset, index, size) video-lookup
reference into the media table.

Media table (Avro-like, row-oriented): the full-resolution video bytes,
touched "only [in] rare cases".

Training read path: filter meta rows by quality, read text + audio +
highlight frames from the columnar store alone; optionally bounce to
the media table per sample (the pre-Bullion layout the paper calls
"fragmented I/O"). The benchmark contrasts:

* inline highlights vs. per-sample media lookups (Fig 7's point), and
* quality-presorted vs. unsorted row order (§2.5's presorting claim).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.reader import BullionReader
from repro.core.table import Table
from repro.core.writer import BullionWriter, WriterOptions
from repro.expr import col
from repro.iosim import IOStats, SeekModel, SimulatedStorage
from repro.multimodal.media import MediaReader, MediaRef, MediaWriter
from repro.multimodal.quality import contiguous_run_stats, sort_rows_by_quality


@dataclass
class MultimodalSample:
    """One training sample before ingestion."""

    sample_id: int
    text_hash: int
    tags: bytes
    caption: bytes
    audio: bytes
    quality: float
    frame_index: np.ndarray  # indices of highlight frames in the video
    highlight_frames: list[bytes]  # reduced-resolution frames, inlined
    video: bytes  # full-size video, media table only


@dataclass
class BatchReadReport:
    """I/O accounting for one training epoch of reads."""

    samples_read: int
    meta: IOStats
    media: IOStats
    selected_runs: int
    mean_run_length: float

    def modelled_time(self, model: SeekModel | None = None) -> float:
        return self.meta.modelled_time(model) + self.media.modelled_time(model)


class MultimodalDataset:
    """Ingest samples into the dual-table layout; read like a trainer."""

    def __init__(
        self,
        meta_storage: SimulatedStorage | None = None,
        media_storage: SimulatedStorage | None = None,
        presort_by_quality: bool = True,
        rows_per_page: int = 256,
        rows_per_group: int = 4096,
    ) -> None:
        self.meta_storage = meta_storage or SimulatedStorage("meta")
        self.media_storage = media_storage or SimulatedStorage("media")
        self._presort = presort_by_quality
        self._rows_per_page = rows_per_page
        self._rows_per_group = rows_per_group
        self._num_samples = 0

    # -- ingest ---------------------------------------------------------
    def ingest(self, samples: list[MultimodalSample]) -> None:
        """Write media first (refs), then the columnar meta table."""
        media_writer = MediaWriter(
            self.media_storage, field_names=["sample_id", "video"]
        )
        for s in samples:
            media_writer.append(
                {
                    "sample_id": s.sample_id.to_bytes(8, "little"),
                    "video": s.video,
                }
            )
        refs = media_writer.close()

        table = Table(
            {
                "sample_id": np.array(
                    [s.sample_id for s in samples], dtype=np.int64
                ),
                "text_hash": np.array(
                    [s.text_hash for s in samples], dtype=np.int64
                ),
                "tags": [s.tags for s in samples],
                "caption": [s.caption for s in samples],
                "audio": [s.audio for s in samples],
                "quality": np.array(
                    [s.quality for s in samples], dtype=np.float64
                ),
                "frame_index": [
                    np.asarray(s.frame_index, dtype=np.int64) for s in samples
                ],
                "highlight_frames": [s.highlight_frames for s in samples],
                "video_block": np.array(
                    [r.block_offset for r in refs], dtype=np.int64
                ),
                "video_index": np.array(
                    [r.index_in_block for r in refs], dtype=np.int64
                ),
                "video_bytes": np.array(
                    [r.approx_bytes for r in refs], dtype=np.int64
                ),
            }
        )
        if self._presort:
            table, _order = sort_rows_by_quality(table, "quality")
        BullionWriter(
            self.meta_storage,
            options=WriterOptions(
                rows_per_page=self._rows_per_page,
                rows_per_group=self._rows_per_group,
            ),
        ).write(table)
        self._num_samples = len(samples)

    # -- training reads ---------------------------------------------------
    def train_epoch(
        self,
        quality_threshold: float,
        use_inline_highlights: bool = True,
        reset_stats: bool = True,
    ) -> BatchReadReport:
        """Read every sample above the quality bar, counting I/O.

        ``use_inline_highlights=False`` models the pre-Bullion hybrid
        layout: each selected sample bounces to the media table for its
        frames ("bouncing back and forth across both meta and media
        tables ... scattered data layout leads to random I/O patterns").
        """
        if reset_stats:
            self.meta_storage.stats.reset()
            self.media_storage.stats.reset()
        reader = BullionReader(self.meta_storage)
        footer = reader.footer

        # footer-stats row-group pruning: with the quality presort the
        # qualifying groups are a prefix of the file, and this costs
        # zero data I/O (§2.5 + the stats section of the footer)
        candidates = reader.prune_row_groups_expr(
            col("quality") >= float(quality_threshold)
        )
        touched_groups = []
        selected_local: list[np.ndarray] = []
        selected_global: list[np.ndarray] = []
        for g in candidates:
            rg = footer.row_group(g)
            quality = np.asarray(
                reader.project(
                    ["quality"], row_groups=[g], drop_deleted=False
                ).column("quality"),
                dtype=np.float64,
            )
            local = np.flatnonzero(quality >= quality_threshold)
            if len(local):
                touched_groups.append(g)
                selected_local.append(local)
                selected_global.append(local + rg.row_start)
        selected = (
            np.concatenate(selected_global)
            if selected_global
            else np.zeros(0, dtype=np.int64)
        )
        runs, mean_run = contiguous_run_stats(selected)

        columns = ["sample_id", "caption", "audio", "frame_index"]
        if use_inline_highlights:
            columns.append("highlight_frames")
        else:
            columns.extend(["video_block", "video_index"])
        table = (
            reader.project(columns, row_groups=touched_groups)
            if touched_groups
            else Table({c: np.zeros(0, dtype=np.int64) for c in ["sample_id"]})
        )

        if not use_inline_highlights and touched_groups:
            # per-sample bounce to the row-oriented media table
            offsets = []
            row_base = 0
            for g, local in zip(touched_groups, selected_local):
                offsets.append(local + row_base)
                row_base += footer.row_group(g).n_rows
            picked = np.concatenate(offsets)
            media = MediaReader(self.media_storage)
            blocks = np.asarray(table.column("video_block"))[picked]
            indices = np.asarray(table.column("video_index"))[picked]
            for b, i in zip(blocks, indices):
                media.read_record(MediaRef(int(b), int(i), 0))
        return BatchReadReport(
            samples_read=int(len(selected)),
            meta=replace(self.meta_storage.stats),
            media=replace(self.media_storage.stats),
            selected_runs=runs,
            mean_run_length=mean_run,
        )

    def lookup_full_video(self, sample_row: int) -> bytes:
        """The rare full-resolution path via the meta table's video ref."""
        reader = BullionReader(self.meta_storage)
        table = reader.project(["video_block", "video_index"])
        ref = MediaRef(
            int(np.asarray(table.column("video_block"))[sample_row]),
            int(np.asarray(table.column("video_index"))[sample_row]),
            0,
        )
        return MediaReader(self.media_storage).read_record(ref)["video"]
