"""The video-tracking DFG on ORWL, plus OpenMP and sequential variants.

Task graph (ids as in Figs. 1–2 of the paper, 30 tasks with the default
splits)::

    0 producer → 1 gmm (⇄ 10..25 gmm split) → 2 erode → 3..6 dilate
      → 7 ccl (⇄ 26..29 ccl split) → 8 tracking → 9 consumer

Each stage owns a location for its output; scatter stages (gmm, ccl)
write a work location their split sub-tasks read 1/k of, and gather the
per-strip results back. All handles are iterative, so the whole graph
pipelines across frames — the task parallelism the OpenMP fork-join
variant lacks.

In data-execution mode the pipeline runs the real imaging algorithms and
its per-frame tracking output is exactly equal to
:func:`run_sequential_reference` — pipeline order is fully determined by
the location FIFOs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.video.ccl import (
    CCL_FLOPS_PER_PIXEL,
    label,
    merge_strip_labels,
    strip_bounds,
)
from repro.apps.video.frames import FRAME_FORMATS, FrameSpec, VideoSource
from repro.apps.video.gmm import (
    GMM_FLOPS_PER_PIXEL,
    GMM_STATE_BYTES_PER_PIXEL,
    GMMBackground,
)
from repro.apps.video.morphology import MORPH_FLOPS_PER_PIXEL, dilate3, erode3
from repro.apps.video.tracking import TRACK_FLOPS_PER_COMPONENT, CentroidTracker
from repro.errors import ReproError
from repro.openmp.runtime import OMPResult, OpenMPRuntime
from repro.orwl.runtime import Runtime, RunResult
from repro.orwl.split import split_readers
from repro.sim.params import CostModel
from repro.sim.process import Compute, Touch
from repro.topology.tree import Topology

__all__ = [
    "VideoConfig",
    "build_orwl_video",
    "run_orwl_video",
    "run_openmp_video",
    "run_sequential_video",
    "run_sequential_reference",
]

#: The producer is an acquisition/decode stage (camera DMA + unpack).
PRODUCER_FLOPS_PER_PIXEL = 1.0
ASSEMBLY_FLOPS_PER_PIXEL = 1.0
CONSUMER_FLOPS_PER_PIXEL = 1.0
#: Camera frames are RGB; masks and labels stay single-channel.
FRAME_BYTES_PER_PIXEL = 3
#: Size of a zero-copy split descriptor handed through a work location.
DESCRIPTOR_BYTES = 4096


@dataclass(frozen=True)
class VideoConfig:
    """Pipeline parameters; defaults give the paper's 30-task graph."""

    resolution: str = "HD"  # key of FRAME_FORMATS, or use `spec`
    frames: int = 50
    gmm_split: int = 16
    ccl_split: int = 4
    n_dilate: int = 4
    n_objects: int = 3
    seed: int = 0
    execute_data: bool = False

    def __post_init__(self) -> None:
        if self.resolution not in FRAME_FORMATS:
            raise ReproError(
                f"unknown resolution {self.resolution!r}; "
                f"known: {sorted(FRAME_FORMATS)}"
            )
        if self.frames < 1:
            raise ReproError("frames must be >= 1")
        if self.gmm_split < 1 or self.ccl_split < 1 or self.n_dilate < 1:
            raise ReproError("splits and dilate count must be >= 1")

    @property
    def spec(self) -> FrameSpec:
        return FRAME_FORMATS[self.resolution]

    @property
    def n_tasks(self) -> int:
        return 6 + self.n_dilate + self.gmm_split + self.ccl_split


def build_orwl_video(runtime: Runtime, cfg: VideoConfig) -> dict:
    """Declare the DFG on *runtime*; returns handles to the collected
    outputs (``result["tracks"]`` fills per frame in data mode)."""
    spec = cfg.spec
    px = spec.pixels
    frame_bytes = px * FRAME_BYTES_PER_PIXEL
    mask_bytes = px  # bool stored as bytes
    gmm_bounds = strip_bounds(spec.height, cfg.gmm_split)
    ccl_bounds = strip_bounds(spec.height, cfg.ccl_split)
    out: dict = {"tracks": [], "frames_done": 0}

    src = VideoSource(
        spec, n_objects=cfg.n_objects, seed=cfg.seed
    ) if cfg.execute_data else None

    # ---- tasks in Fig. 2 id order -------------------------------------------
    t_producer = runtime.task("producer")
    t_gmm = runtime.task("gmm")
    t_erode = runtime.task("erode")
    t_dilate = [runtime.task("dilate") for _ in range(cfg.n_dilate)]
    t_ccl = runtime.task("ccl")
    t_track = runtime.task("tracking")
    t_consumer = runtime.task("consumer")
    t_gmm_split = [runtime.task("gmm split") for _ in range(cfg.gmm_split)]
    t_ccl_split = [runtime.task("ccl split") for _ in range(cfg.ccl_split)]
    # Materialize main operations now so operation ids match the task ids
    # of Figs. 1-2 (0 producer, 1 gmm, 2 erode, 3.. dilate, ccl, tracking,
    # consumer, then the gmm/ccl split ranks).
    for t in (
        t_producer, t_gmm, t_erode, *t_dilate, t_ccl, t_track, t_consumer,
        *t_gmm_split, *t_ccl_split,
    ):
        t.main_op

    # ---- locations ------------------------------------------------------------
    loc_frame = t_producer.location("frame", frame_bytes)
    loc_gmm_work = t_gmm.location("gmm_work", frame_bytes)
    loc_fg = t_gmm.location("fg_mask", mask_bytes)
    loc_gmm_piece = [
        t.location(f"gmm_piece{i}", max(1, (hi - lo) * spec.width))
        for i, (t, (lo, hi)) in enumerate(zip(t_gmm_split, gmm_bounds))
    ]
    loc_eroded = t_erode.location("eroded", mask_bytes)
    loc_dilated = [
        t.location(f"dilated{k}", mask_bytes) for k, t in enumerate(t_dilate)
    ]
    loc_ccl_work = t_ccl.location("ccl_work", mask_bytes)
    loc_labels = t_ccl.location("labels", 8192)
    loc_ccl_piece = [
        t.location(f"ccl_piece{i}", max(1, 4 * (hi - lo) * spec.width))
        for i, (t, (lo, hi)) in enumerate(zip(t_ccl_split, ccl_bounds))
    ]
    loc_tracks = t_track.location("tracks", 4096)

    # ---- handles -----------------------------------------------------------------
    h_prod_frame = t_producer.write_handle(loc_frame, iterative=True)

    h_gmm_frame = t_gmm.read_handle(loc_frame, iterative=True)
    h_gmm_work = t_gmm.write_handle(loc_gmm_work, iterative=True)
    h_gmm_pieces = [
        t_gmm.read_handle(loc, iterative=True) for loc in loc_gmm_piece
    ]
    h_gmm_fg = t_gmm.write_handle(loc_fg, iterative=True)

    h_split_work = split_readers(loc_gmm_work, [t.main_op for t in t_gmm_split])
    h_split_piece = [
        t.write_handle(loc, iterative=True)
        for t, loc in zip(t_gmm_split, loc_gmm_piece)
    ]

    h_erode_in = t_erode.read_handle(loc_fg, iterative=True)
    h_erode_out = t_erode.write_handle(loc_eroded, iterative=True)

    h_dilate_in = []
    h_dilate_out = []
    prev_loc = loc_eroded
    for k, t in enumerate(t_dilate):
        h_dilate_in.append(t.read_handle(prev_loc, iterative=True))
        h_dilate_out.append(t.write_handle(loc_dilated[k], iterative=True))
        prev_loc = loc_dilated[k]

    h_ccl_in = t_ccl.read_handle(prev_loc, iterative=True)
    h_ccl_work = t_ccl.write_handle(loc_ccl_work, iterative=True)
    h_ccl_pieces = [t_ccl.read_handle(loc, iterative=True) for loc in loc_ccl_piece]
    h_ccl_labels = t_ccl.write_handle(loc_labels, iterative=True)

    h_cclsplit_work = split_readers(loc_ccl_work, [t.main_op for t in t_ccl_split])
    h_cclsplit_piece = [
        t.write_handle(loc, iterative=True)
        for t, loc in zip(t_ccl_split, loc_ccl_piece)
    ]

    h_track_in = t_track.read_handle(loc_labels, iterative=True)
    h_track_out = t_track.write_handle(loc_tracks, iterative=True)

    h_cons_in = t_consumer.read_handle(loc_tracks, iterative=True)

    # ---- bodies --------------------------------------------------------------------
    # Every frame costs the same, so each body builds its ops once, before
    # its frame loop (ops are immutable and may be yielded again).
    def producer_body(op):
        produce = Compute(PRODUCER_FLOPS_PER_PIXEL * px)
        for _ in range(cfg.frames):
            yield from h_prod_frame.acquire()
            yield produce
            yield h_prod_frame.touch(frame_bytes)
            if cfg.execute_data:
                h_prod_frame.store(src.next_frame())
            h_prod_frame.release()

    def gmm_body(op):
        # orwl_split is zero-copy: the work location publishes a view of
        # the producer's frame (a descriptor, not a 25 MB copy); the split
        # workers pull their strips from the frame buffer in parallel.
        assemble = Compute(ASSEMBLY_FLOPS_PER_PIXEL * px)
        for _ in range(cfg.frames):
            yield from h_gmm_frame.acquire()
            yield from h_gmm_work.acquire()
            yield h_gmm_frame.touch(DESCRIPTOR_BYTES)
            yield h_gmm_work.touch(DESCRIPTOR_BYTES)
            if cfg.execute_data:
                h_gmm_work.store(h_gmm_frame.map())
            h_gmm_work.release()
            h_gmm_frame.release()
            # Gather strips into the foreground mask.
            yield from h_gmm_fg.acquire()
            pieces = []
            for h in h_gmm_pieces:
                yield from h.acquire()
                yield h.touch()
                if cfg.execute_data:
                    pieces.append(h.map())
                h.release()
            yield assemble
            yield h_gmm_fg.touch(mask_bytes)
            if cfg.execute_data:
                h_gmm_fg.store(np.vstack(pieces))
            h_gmm_fg.release()

    def gmm_split_body(op, idx):
        lo, hi = gmm_bounds[idx]
        strip_px = (hi - lo) * spec.width
        model = (
            GMMBackground((hi - lo, spec.width)) if cfg.execute_data else None
        )
        state = runtime.machine.allocate(
            max(1, strip_px * GMM_STATE_BYTES_PER_PIXEL), f"gmm_state{idx}"
        )
        work_h = h_split_work[idx]
        piece_h = h_split_piece[idx]

        def gen(op):
            # Zero-copy split: read the strip straight from the
            # producer's frame buffer.
            strip = Touch(loc_frame.buffer, strip_px * FRAME_BYTES_PER_PIXEL)
            update = Touch(state, write=True)
            gmm = Compute(GMM_FLOPS_PER_PIXEL * strip_px)
            for _ in range(cfg.frames):
                yield from work_h.acquire()
                yield from piece_h.acquire()
                yield strip
                yield update
                yield gmm
                yield piece_h.touch()
                if cfg.execute_data:
                    piece_h.store(model.apply(work_h.map()[lo:hi]))
                work_h.release()
                piece_h.release()

        return gen(op)

    def filter_body(op, h_in, h_out, fn):
        morph = Compute(MORPH_FLOPS_PER_PIXEL * px)
        for _ in range(cfg.frames):
            yield from h_in.acquire()
            yield from h_out.acquire()
            yield h_in.touch()
            yield morph
            yield h_out.touch()
            if cfg.execute_data:
                h_out.store(fn(h_in.map()))
            h_in.release()
            h_out.release()

    def ccl_body(op):
        assemble = Compute(ASSEMBLY_FLOPS_PER_PIXEL * px)
        for _ in range(cfg.frames):
            yield from h_ccl_in.acquire()
            yield from h_ccl_work.acquire()
            yield h_ccl_in.touch(DESCRIPTOR_BYTES)
            yield h_ccl_work.touch(DESCRIPTOR_BYTES)
            if cfg.execute_data:
                h_ccl_work.store(h_ccl_in.map())
            h_ccl_work.release()
            h_ccl_in.release()
            yield from h_ccl_labels.acquire()
            strips = []
            for h in h_ccl_pieces:
                yield from h.acquire()
                yield h.touch()
                if cfg.execute_data:
                    strips.append(h.map())
                h.release()
            yield assemble
            yield h_ccl_labels.touch()
            if cfg.execute_data:
                _, comps = merge_strip_labels(
                    ccl_bounds, strips, (spec.height, spec.width)
                )
                h_ccl_labels.store(comps)
            h_ccl_labels.release()

    def ccl_split_body(op, idx):
        lo, hi = ccl_bounds[idx]
        strip_px = (hi - lo) * spec.width
        work_h = h_cclsplit_work[idx]
        piece_h = h_cclsplit_piece[idx]

        def gen(op):
            # Zero-copy split of the final dilated mask.
            strip = Touch(loc_dilated[-1].buffer, strip_px)
            ccl = Compute(CCL_FLOPS_PER_PIXEL * strip_px)
            for _ in range(cfg.frames):
                yield from work_h.acquire()
                yield from piece_h.acquire()
                yield strip
                yield ccl
                yield piece_h.touch()
                if cfg.execute_data:
                    piece_h.store(label(work_h.map()[lo:hi])[0])
                work_h.release()
                piece_h.release()

        return gen(op)

    def track_body(op):
        tracker = CentroidTracker() if cfg.execute_data else None
        track = Compute(TRACK_FLOPS_PER_COMPONENT * 10)
        for _ in range(cfg.frames):
            yield from h_track_in.acquire()
            yield from h_track_out.acquire()
            yield h_track_in.touch()
            yield track
            yield h_track_out.touch()
            if cfg.execute_data:
                tracker.update(h_track_in.map())
                h_track_out.store(tracker.summary())
            h_track_in.release()
            h_track_out.release()

    def consumer_body(op):
        consume = Compute(CONSUMER_FLOPS_PER_PIXEL * px)
        for _ in range(cfg.frames):
            yield from h_cons_in.acquire()
            yield h_cons_in.touch()
            yield consume
            if cfg.execute_data:
                out["tracks"].append(list(h_cons_in.map()))
            h_cons_in.release()
            out["frames_done"] += 1

    t_producer.set_body(producer_body)
    t_gmm.set_body(gmm_body)
    t_erode.set_body(
        lambda op: filter_body(op, h_erode_in, h_erode_out, erode3)
    )
    for k, t in enumerate(t_dilate):
        t.set_body(
            lambda op, k=k: filter_body(
                op, h_dilate_in[k], h_dilate_out[k], dilate3
            )
        )
    t_ccl.set_body(ccl_body)
    t_track.set_body(track_body)
    t_consumer.set_body(consumer_body)
    for i, t in enumerate(t_gmm_split):
        t.set_body(lambda op, i=i: gmm_split_body(op, i))
    for i, t in enumerate(t_ccl_split):
        t.set_body(lambda op, i=i: ccl_split_body(op, i))

    return out


def run_orwl_video(
    topology: Topology,
    cfg: VideoConfig,
    *,
    affinity: bool,
    model: CostModel | None = None,
    seed: int = 0,
    core: str = "batched",
) -> tuple[RunResult, dict]:
    """Execute the ORWL pipeline; returns (result, outputs).

    ``outputs["tracks"]`` holds per-frame track summaries in data mode;
    FPS of Fig. 6 is ``cfg.frames / result.seconds``.
    """
    runtime = Runtime(topology, affinity=affinity, model=model, seed=seed,
                      core=core)
    out = build_orwl_video(runtime, cfg)
    result = runtime.run()
    return result, out


# -- sequential reference (pure algorithms, no simulation) ---------------------------


def run_sequential_reference(cfg: VideoConfig) -> list[list]:
    """Run the real pipeline frame by frame in plain Python.

    Ground truth for the ORWL pipeline's data mode: per-frame tracker
    summaries.
    """
    spec = cfg.spec
    src = VideoSource(spec, n_objects=cfg.n_objects, seed=cfg.seed)
    gmm = GMMBackground((spec.height, spec.width))
    tracker = CentroidTracker()
    outputs: list[list] = []
    for _ in range(cfg.frames):
        frame = src.next_frame()
        mask = gmm.apply(frame)
        mask = erode3(mask)
        for _ in range(cfg.n_dilate):
            mask = dilate3(mask)
        _, comps = label(mask)
        tracker.update(comps)
        outputs.append(tracker.summary())
    return outputs


# -- OpenMP and sequential performance variants ------------------------------------------


def run_openmp_video(
    topology: Topology,
    cfg: VideoConfig,
    n_threads: int,
    *,
    binding: str | None,
    model: CostModel | None = None,
    seed: int = 0,
    core: str = "batched",
    attach: Callable[[OpenMPRuntime], None] | None = None,
) -> OMPResult:
    """Fork-join variant: per frame, each heavy stage is a parallel_for
    over strips with a barrier — no cross-frame pipelining, master-homed
    buffers (the paper's OpenMP comparison point)."""
    omp = OpenMPRuntime(topology, n_threads, binding=binding, model=model,
                        seed=seed, core=core)
    spec = cfg.spec
    px = spec.pixels

    def master(rt: OpenMPRuntime):
        frame = rt.allocate(px, "frame")
        mask = rt.allocate(px, "mask")
        state = rt.allocate(px * GMM_STATE_BYTES_PER_PIXEL, "gmm_state")
        labels = rt.allocate(4 * px, "labels")
        yield Touch(frame, write=True)
        yield Touch(state, write=True)

        n_strips = n_threads
        # Every strip of every frame costs the same: the ops are made
        # once and yielded by every chunk (ops are immutable).
        strip = px / n_strips
        gmm_ops = (
            Touch(frame, strip),
            Touch(state, strip * GMM_STATE_BYTES_PER_PIXEL, write=True),
            Compute(GMM_FLOPS_PER_PIXEL * strip),
            Touch(mask, strip, write=True),
        )
        morph_ops = (
            Touch(mask, strip),
            Compute(MORPH_FLOPS_PER_PIXEL * strip),
            Touch(mask, strip, write=True),
        )
        ccl_ops = (
            Touch(mask, strip),
            Compute(CCL_FLOPS_PER_PIXEL * strip),
            Touch(labels, 4 * strip, write=True),
        )

        def gmm_chunk(i):
            yield from gmm_ops

        def morph_chunk(i):
            yield from morph_ops

        def ccl_chunk(i):
            yield from ccl_ops

        produce = Compute(PRODUCER_FLOPS_PER_PIXEL * px)
        write_frame = Touch(frame, write=True)
        track = Compute(TRACK_FLOPS_PER_COMPONENT * 10)
        consume = Compute(CONSUMER_FLOPS_PER_PIXEL * px)
        for _ in range(cfg.frames):
            # Producer (serial on the master).
            yield produce
            yield write_frame
            yield from rt.parallel_for(n_strips, gmm_chunk)
            for _ in range(1 + cfg.n_dilate):  # erode + dilates
                yield from rt.parallel_for(n_strips, morph_chunk)
            yield from rt.parallel_for(n_strips, ccl_chunk)
            # Tracking + consumer (serial).
            yield track
            yield consume

    if attach is not None:
        attach(omp)
    return omp.run(master)


def run_sequential_video(
    topology: Topology,
    cfg: VideoConfig,
    *,
    model: CostModel | None = None,
    seed: int = 0,
) -> OMPResult:
    """Single-thread baseline of Fig. 6 (all stages serial on one core)."""
    return run_openmp_video(
        topology, cfg, 1, binding="close", model=model, seed=seed
    )
