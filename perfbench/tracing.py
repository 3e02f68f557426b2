"""Span tracing of dopplerveil from outside the program.

The tracer replaces every public dopplerveil function with a wrapper that
records a span (name, start, end, parent, iteration, thread).  It replaces
the function in every dopplerveil module namespace that holds it, not only
in the defining module: ``pipeline`` binds the obfuscator multipliers at
import and ``cli`` binds ``run_scenario`` by name, so wrapping only the
defining module would miss those calls.  Spans stay in memory until
``write_spans``.  ``uninstall`` restores the original functions, so untraced
iterations run the unmodified program.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

MULTIPLIERS = {"obfuscator.smear_phasor", "obfuscator.spoof_phasor",
               "obfuscator.apply_smearing", "obfuscator.apply_spoofing"}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span of its thread
    iteration: int
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _channel_key(chan) -> str:
    h = hashlib.sha1(repr(chan.carrier_hz).encode())
    for tr in chan.tracks:
        h.update(f"{tr.label}|{tr.reflectivity!r}".encode())
        h.update(np.ascontiguousarray(tr.times_s).tobytes())
        h.update(np.ascontiguousarray(tr.path_length_m).tobytes())
    return h.hexdigest()


def _cfr_matrix_counts(args, kwargs, result):
    chan = _arg(args, kwargs, 0, "chan")
    return {"cells": result.size * len(chan.tracks),
            "channel": _channel_key(chan)}


def _frame_counts(args, kwargs, result):
    # Imported here: run.py imports this module without dopplerveil on
    # its path.
    from dopplerveil.waveform import KIND_DATA
    cfg = _arg(args, kwargs, 0, "cfg")
    grid = result[0]
    return {"data_bits": int(np.count_nonzero(grid.kinds == KIND_DATA))
            * int(math.log2(cfg.qam_order))}


# Counts recorded beside the span, computed from array shapes and file sizes
# so they repeat exactly from run to run.
COUNTERS = {
    "channel.cfr_matrix": _cfr_matrix_counts,
    "waveform.frame_stream": _frame_counts,
    "pipeline.simulate_demod":
        lambda a, k, r: {"payload_bits": _arg(a, k, 0, "cfg").payload_bits},
    "spectral.stft": lambda a, k, r: {"frames": r.power.shape[1]},
    "receiver.dump_cfr_csv": _file_bytes,
    "receiver.dump_cfr_bin": _file_bytes,
    "spectral.save_spectrogram_csv": _file_bytes,
    "spectral.save_spectrogram_pgm": _file_bytes,
    "channel.dump_tracks": _file_bytes,
    "pipeline.write_report": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(sid, name, start, end, parent, self.iteration,
                        threading.get_ident())
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            self.spans.append(span)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap each public dopplerveil function wherever a module binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dopplerveil" or n.startswith("dopplerveil.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("dopplerveil.")):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                self._saved.append((module, attr, obj))
                setattr(module, attr,
                        self._wrap(obj, f"{layer}.{obj.__name__}"))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# Per-layer metric -> unit.  `_s` metrics are seconds summed per iteration.
LAYER_UNITS = {
    "scenario.load_s": "s",
    "channel.build_s": "s",
    "channel.cfr_matrix_s": "s",
    "channel.cfr_cells": "count",
    "channel.cfr_reuse": "ratio",
    "channel.propagate_s": "s",
    "channel.dump_tracks_s": "s",
    "channel.tracks_csv_bytes": "bytes",
    "waveform.frame_stream_s": "s",
    "waveform.frames": "count",
    "waveform.payload_fill": "ratio",
    "obfuscator.multiplier_s": "s",
    "receiver.ofdm_demodulate_s": "s",
    "receiver.equalize_s": "s",
    "receiver.dump_cfr_csv_s": "s",
    "receiver.cfr_csv_bytes": "bytes",
    "receiver.dump_cfr_bin_s": "s",
    "receiver.cfr_bin_bytes": "bytes",
    "spectral.stft_s": "s",
    "spectral.stft_calls": "count",
    "spectral.stft_frames": "count",
    "spectral.method2_view_s": "s",
    "spectral.save_csv_s": "s",
    "spectral.csv_bytes": "bytes",
    "spectral.save_pgm_s": "s",
    "spectral.pgm_bytes": "bytes",
    "spectral.load_csv_s": "s",
    "pipeline.simulate_csi_self_s": "s",
    "pipeline.simulate_demod_self_s": "s",
    "pipeline.run_scenario_self_s": "s",
    "pipeline.write_report_s": "s",
    "pipeline.report_bytes": "bytes",
    "cli.sweep_points": "count",
    "cli.sweep_overlap": "ratio",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Metrics of the whole traced run rather than of one iteration's spans.
RUN_METRICS = ("trace.wall_s", "trace.overhead_s")

# Summed span durations: metric -> span names.
_SUMS = {
    "scenario.load_s": ("scenario.load_scenario_file",),
    "channel.build_s": ("pipeline.build_channel",),
    "channel.cfr_matrix_s": ("channel.cfr_matrix",),
    "channel.propagate_s": ("channel.propagate",),
    "channel.dump_tracks_s": ("channel.dump_tracks",),
    "waveform.frame_stream_s": ("waveform.frame_stream",),
    "receiver.ofdm_demodulate_s": ("receiver.ofdm_demodulate",),
    "receiver.equalize_s": ("receiver.pilot_phase_correct",
                            "receiver.equalize_demap"),
    "receiver.dump_cfr_csv_s": ("receiver.dump_cfr_csv",),
    "receiver.dump_cfr_bin_s": ("receiver.dump_cfr_bin",),
    "spectral.stft_s": ("spectral.stft",),
    "spectral.save_csv_s": ("spectral.save_spectrogram_csv",),
    "spectral.save_pgm_s": ("spectral.save_spectrogram_pgm",),
    "spectral.load_csv_s": ("spectral.load_spectrogram_csv",),
    "pipeline.write_report_s": ("pipeline.write_report",),
}

# Self time (duration minus child spans): metric -> span name.
_SELF = {
    "spectral.method2_view_s": "spectral.method2_view",
    "pipeline.simulate_csi_self_s": "pipeline.simulate_csi",
    "pipeline.simulate_demod_self_s": "pipeline.simulate_demod",
    "pipeline.run_scenario_self_s": "pipeline.run_scenario",
}

# Summed counts: metric -> (span name, count key).
_COUNTS = {
    "channel.cfr_cells": ("channel.cfr_matrix", "cells"),
    "channel.tracks_csv_bytes": ("channel.dump_tracks", "bytes"),
    "receiver.cfr_csv_bytes": ("receiver.dump_cfr_csv", "bytes"),
    "receiver.cfr_bin_bytes": ("receiver.dump_cfr_bin", "bytes"),
    "spectral.stft_frames": ("spectral.stft", "frames"),
    "spectral.csv_bytes": ("spectral.save_spectrogram_csv", "bytes"),
    "spectral.pgm_bytes": ("spectral.save_spectrogram_pgm", "bytes"),
    "pipeline.report_bytes": ("pipeline.write_report", "bytes"),
}


def iteration_metrics(spans: list, is_sweep: bool) -> dict:
    """Per-layer metrics of the spans of one iteration."""
    by_id = {s.sid: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    out = {name: 0 for name in LAYER_UNITS if name not in RUN_METRICS}

    def named(name):
        return [s for s in spans if s.name == name]

    for metric, names in _SUMS.items():
        out[metric] = sum(s.dur for s in spans if s.name in names)
    for metric, name in _SELF.items():
        out[metric] = sum(s.dur - child_time.get(s.sid, 0.0)
                          for s in named(name))
    for metric, (name, key) in _COUNTS.items():
        out[metric] = sum(s.counts[key] for s in named(name))

    cfr = named("channel.cfr_matrix")
    if cfr:
        out["channel.cfr_reuse"] = (len({s.counts["channel"] for s in cfr})
                                    / len(cfr))
    frames = named("waveform.frame_stream")
    out["waveform.frames"] = len(frames)
    data_bits = sum(s.counts["data_bits"] for s in frames)
    if data_bits:
        out["waveform.payload_fill"] = sum(
            s.counts["payload_bits"]
            for s in named("pipeline.simulate_demod")) / data_bits
    out["obfuscator.multiplier_s"] = sum(
        s.dur for s in spans if s.name in MULTIPLIERS
        and (s.parent not in by_id or by_id[s.parent].name not in MULTIPLIERS))
    out["spectral.stft_calls"] = len(named("spectral.stft"))
    if is_sweep:
        points = named("pipeline.run_scenario")
        main = sum(s.dur for s in named("cli.main"))
        out["cli.sweep_points"] = len(points)
        out["cli.sweep_overlap"] = (sum(s.dur for s in points) / main
                                    if main else 0.0)
    out["trace.spans"] = len(spans)
    return out
