"""Workload definitions of the dopplerveil benchmark.

Each workload is a closed loop in one process: the next iteration starts when
the previous one has finished.  An iteration is one call of
``dopplerveil.cli.main`` on a generated scenario file.  Scenario files are
written as JSON, which PyYAML reads as a YAML flow mapping.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Metrics are pinned in reference.json for this many scenario seeds; the
# benchmark seed n runs scenario seed n % REFERENCE_SEEDS.
REFERENCE_SEEDS = 32

# Threads the sweep uses; the sandboxes this is tuned on have two cores.
SWEEP_THREADS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict  # every key but `seed`
    argv: tuple  # after `--scenario S --out O`; BASELINE marks the baseline
    baseline: dict | None = None  # scenario of the untimed clean run, if any
    command: str = "run"


BASELINE = "{baseline}"

_CLEAN_2S = {"duration_s": 2.0, "payload_bits": 100000, "snr_db": 25}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="run-artifacts",
            why="default 2 s smeared run with csv+pgm artifacts and a "
                "--baseline read; text artifact I/O dominates",
            scenario={**_CLEAN_2S,
                      "obfuscation": {"kind": "smear", "delta_f_hz": 200.0,
                                      "f_m_hz": 10.0}},
            argv=("--baseline", BASELINE),
            baseline=_CLEAN_2S,
        ),
        Workload(
            name="long-compute",
            why="20 s spoofed run, 2 Mbit payload, binary CFR only; "
                "signal processing dominates and text I/O is absent",
            scenario={"duration_s": 20.0, "payload_bits": 2000000,
                      "snr_db": 25,
                      "obfuscation": {"kind": "spoof", "v_sp_mps": 5.0}},
            argv=("--format", "bin"),
        ),
        Workload(
            name="sweep-grid",
            why="6-point smear/spoof sweep on 2 threads with --baseline; "
                "every point rebuilds one identical channel under the GIL",
            scenario=_CLEAN_2S,
            command="sweep",
            argv=("--v-sp", "2", "5", "10", "16", "--delta-f", "100", "200",
                  "--f-m", "10", "--baseline", BASELINE,
                  "--threads", str(SWEEP_THREADS)),
            baseline=_CLEAN_2S,
        ),
    )
}

# Per-layer metrics each workload is predicted to move (non-zero in a traced
# run).  Metrics predicted for every workload are listed under "*".
PREDICTED = {
    "*": ("scenario.load_s", "channel.build_s", "channel.cfr_matrix_s",
          "channel.cfr_cells", "channel.cfr_reuse", "channel.propagate_s",
          "waveform.frame_stream_s", "waveform.frames",
          "waveform.payload_fill", "obfuscator.multiplier_s",
          "receiver.ofdm_demodulate_s",
          "receiver.equalize_s", "spectral.stft_s", "spectral.stft_calls",
          "spectral.stft_frames", "spectral.method2_view_s",
          "pipeline.simulate_csi_self_s", "pipeline.simulate_demod_self_s",
          "pipeline.run_scenario_self_s", "pipeline.write_report_s",
          "pipeline.report_bytes"),
    "run-artifacts": ("channel.dump_tracks_s",
                      "channel.tracks_csv_bytes", "receiver.dump_cfr_csv_s",
                      "receiver.cfr_csv_bytes", "spectral.save_csv_s",
                      "spectral.csv_bytes", "spectral.save_pgm_s",
                      "spectral.pgm_bytes", "spectral.load_csv_s"),
    "long-compute": ("receiver.dump_cfr_bin_s",
                     "receiver.cfr_bin_bytes"),
    "sweep-grid": ("channel.dump_tracks_s",
                   "channel.tracks_csv_bytes", "receiver.dump_cfr_csv_s",
                   "receiver.cfr_csv_bytes", "spectral.save_csv_s",
                   "spectral.csv_bytes", "spectral.save_pgm_s",
                   "spectral.pgm_bytes", "spectral.load_csv_s",
                   "cli.sweep_points", "cli.sweep_overlap"),
}

# Per-layer metrics that must read zero on a workload: a writer or reader the
# workload does not use, so a non-zero value means a span is misattributed.
PREDICTED_ZERO = {
    "run-artifacts": ("receiver.dump_cfr_bin_s", "cli.sweep_points"),
    "long-compute": ("receiver.dump_cfr_csv_s", "spectral.save_csv_s",
                     "spectral.load_csv_s", "cli.sweep_points"),
    "sweep-grid": ("receiver.dump_cfr_bin_s",),
}


def scenario_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def write_scenario(path: Path, scenario: dict, seed: int) -> Path:
    path.write_text(json.dumps({**scenario, "seed": scenario_seed(seed)},
                               indent=2) + "\n", encoding="utf-8")
    return path


def iteration_argv(w: Workload, scenario: Path, out: Path,
                   baseline: Path | None) -> list:
    tail = [str(baseline) if a == BASELINE else a for a in w.argv]
    return [w.command, "--scenario", str(scenario), "--out", str(out), *tail]
