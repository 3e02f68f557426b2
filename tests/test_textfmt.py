"""The vectorised `%.9e` writers against Python's formatter and loop writers.

The `_ref_*` functions are the per-value loop writers and the float()-per-value
reader the vectorised code replaced; they are the golden reference for the
artifact bytes.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dopplerveil import _textfmt
from dopplerveil import channel as ch
from dopplerveil import pipeline as pl
from dopplerveil import receiver as rx
from dopplerveil import spectral as sp
from dopplerveil.scenario import Obfuscation, ScenarioConfig


def _ref_dump_cfr_csv(series, path):
    power = np.abs(series.h_hat) ** 2
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,k,re,im,power\n")
        for j, t in enumerate(series.t_s):
            for i, k in enumerate(series.subcarriers):
                h = series.h_hat[i, j]
                fh.write(f"{t:.9e},{int(k)},{h.real:.9e},{h.imag:.9e},"
                         f"{power[i, j]:.9e}\n")


def _ref_save_spectrogram_csv(s, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz\\time_s," + ",".join(f"{t:.9e}" for t in s.times_s)
                 + "\n")
        for i, f in enumerate(s.freqs_hz):
            row = ",".join(f"{v:.9e}" for v in s.power[i])
            fh.write(f"{f:.9e},{row}\n")


def _ref_dump_tracks(tracks, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_s,label,path_length_m\n")
        for track in tracks:
            for t, r in zip(track.times_s, track.path_length_m):
                fh.write(f"{t:.9e},{track.label},{r:.9e}\n")


def _ref_load_spectrogram_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        times = np.array([float(v) for v in header[1:]])
        freqs = []
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            freqs.append(float(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    return np.array(rows), np.array(freqs), times


def _formatted(values) -> list:
    fields = _textfmt._format_e9(np.asarray(values, dtype=np.float64))
    assert fields.shape == (len(values), _textfmt.FIELD_WIDTH)
    return [bytes(row).replace(b"\0", b"") for row in fields]


def _assert_matches_python(values):
    got = _formatted(values)
    want = [b"%.9e" % float(v) for v in values]
    bad = [(v, w, g) for v, w, g in zip(values, want, got) if w != g]
    assert not bad, f"{len(bad)} of {len(values)} differ, e.g. {bad[:5]}"


def _edge_values() -> list:
    vals = [0.0, -0.0, 5e-324, 1e-320, math.inf, -math.inf, math.nan,
            1e300, -1e-200]
    for k in range(-99, 99):
        p = float(f"1e{k}")
        vals += [p, -p, np.nextafter(p, 0.0), np.nextafter(p, math.inf),
                 9.9999999995 * 10.0 ** k, -9.9999999995 * 10.0 ** k]
    rng = np.random.default_rng(7)
    # Ties at the tenth significant digit, and their float neighbours.
    ties = (rng.integers(10 ** 9, 10 ** 10, 20000) + 0.5) * 1e-9
    ties *= 10.0 ** rng.integers(-30, 30, ties.size)
    vals += ties.tolist()
    vals += np.nextafter(ties, 0.0).tolist()
    vals += np.nextafter(ties, math.inf).tolist()
    vals += ((np.arange(5000) + 0.5) * 1e-9).tolist()
    # The renderer's digit-group seams: d6-d9 and d4-d9 rolling over into
    # the group above, also by rounding up from below, and 9.999999999e±k
    # next to 1.000000000e±(k+1).
    for k in (-98, -31, -1, 0, 1, 31, 98):
        for digits in ("1234569999", "1234570000", "1234999999", "1235000000",
                       "1099999999", "1100000000", "9999999999",
                       "1234569999.6", "1234999999.6", "9999999999.4"):
            v = float(f"{digits}e{k - 9}")
            vals += [v, -v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
        vals += [float(f"9.999999999e{k}"), float(f"1e{k + 1}"),
                 float(f"-9.999999999e{-k}"), float(f"-1e{1 - k}")]
    return vals


def test_format_e9_edge_values():
    _assert_matches_python(_edge_values())


def test_format_e9_wide_random_range():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(50000) * 10.0 ** rng.integers(-120, 120, 50000)
    _assert_matches_python(vals.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                max_size=40))
def test_format_e9_matches_python(values):
    _assert_matches_python(values)


def test_join_rows_drops_padding():
    fields = _textfmt._format_e9([1.5, -2.0])
    cells = np.array([[1.0, 2.0], [3.0, math.nan]])
    assert _textfmt._join_rows(fields, b";x", cells, b"\n") == (
        b"1.500000000e+00;x,1.000000000e+00,2.000000000e+00\n"
        b"-2.000000000e+00;x,3.000000000e+00,nan\n")


def test_word_tables_hold_each_groups_ascii_bytes():
    _, hi, mid, lo, exp = _textfmt._tables()
    assert hi.tobytes() == b"".join(
        b"\0%c.%s\0\0" % (s[0], s[1:])
        for s in (b"%04d" % n for n in range(10 ** 4)))
    assert mid.tobytes() == b"".join(
        sign + b"\0" * 5 + b"%02d" % n for sign in (b"\0", b"-")
        for n in range(100))
    assert lo.tobytes() == b"".join(
        b"%04d" % n + b"\0" * 4 for n in range(10 ** 4))
    e = range(-_textfmt._E_MAX, _textfmt._E_MAX + 1)
    assert exp.tobytes() == b"".join(
        b"\0" * 4 + (b"%.9e" % float(f"1e{k}"))[-4:] for k in e)


def test_join_rows_renders_wide_fields_in_cells():
    # 3-digit exponents fill all 17 bytes of a slot, beside 16-byte and
    # shorter fields in the same row.
    x = np.array([[1e-100, -1.5e200, 2.5e-7],
                  [-0.0, math.inf, -9.999999999e99],
                  [1.000000001e100, math.nan, -4.2e-308]])
    assert _textfmt._join_rows(x[:, 2], x, b"\n") == b"".join(
        b"%.9e" % row[2] + b"".join(b",%.9e" % v for v in row) + b"\n"
        for row in x.tolist())


def test_textfmt_defines_no_public_callable():
    # perfbench's tracer wraps public dopplerveil functions; a writer call
    # must stay one span, not one per block and helper.
    assert [name for name, value in vars(_textfmt).items()
            if callable(value) and not name.startswith("_")] == []


def _cfr_series(seconds):
    rng = np.random.default_rng(11)
    m = int(1000 * seconds)
    h = rng.standard_normal((56, m)) + 1j * rng.standard_normal((56, m))
    return rx.CfrSeries(subcarriers=np.arange(-28, 28), h_hat=h,
                        t_s=np.arange(m) * 1e-3, csi_rate_hz=1000.0)


def _spectrogram(seconds):
    rng = np.random.default_rng(12)
    frames = int(seconds / 0.05) - 9
    return sp.Spectrogram(power=rng.random((4096, frames)) ** 3,
                          freqs_hz=np.linspace(-1e3, 1e3, 4096),
                          times_s=np.arange(frames) * 0.05 + 0.25)


def _tracks(seconds):
    t = np.arange(int(200 * seconds)) / 200.0
    return [ch.ScattererTrack(f"part-{i}", t, 5.0 + i * t) for i in range(6)]


def test_writers_peak_memory_is_a_few_blocks(tmp_path, traced_peak):
    # The writers' peak traced allocation is a few blocks' worth of float64
    # temporaries and row buffers, whatever the series length: a 20 s
    # series peaks no higher than a 2 s one.
    block = _textfmt.BLOCK_VALUES * 8
    _textfmt._tables()  # built once on first use; not part of any write
    for write, make in ((rx.dump_cfr_csv, _cfr_series),
                        (sp.save_spectrogram_csv, _spectrogram),
                        (ch.dump_tracks, _tracks)):
        short, long = (traced_peak(write, make(s), tmp_path / "a.csv")[1]
                       for s in (2.0, 20.0))
        assert max(short, long) < 10 * block, write.__name__
        if write is not ch.dump_tracks:  # a 20 s track is still one block
            assert long < 1.1 * short, write.__name__


def _tee(new, ref):
    """Writer that writes path with `new` and path + '.ref' with `ref`."""
    def write(obj, path):
        new(obj, path)
        ref(obj, f"{path}.ref")
    return write


def _assert_golden(paths):
    for path in paths:
        assert path.read_bytes() == path.with_name(path.name + ".ref") \
            .read_bytes(), path.name


@pytest.mark.parametrize("obfuscation", [
    Obfuscation(kind="none"),
    Obfuscation(kind="smear", delta_f_hz=200.0, f_m_hz=10.0),
    Obfuscation(kind="spoof", v_sp_mps=16.0),
], ids=["none", "smear", "spoof"])
def test_run_artifacts_match_loop_writers(tmp_path, monkeypatch,
                                          obfuscation):
    monkeypatch.setattr(rx, "dump_cfr_csv",
                        _tee(rx.dump_cfr_csv, _ref_dump_cfr_csv))
    monkeypatch.setattr(sp, "save_spectrogram_csv",
                        _tee(sp.save_spectrogram_csv,
                             _ref_save_spectrogram_csv))
    monkeypatch.setattr(ch, "dump_tracks",
                        _tee(ch.dump_tracks, _ref_dump_tracks))
    cfg = ScenarioConfig(duration_s=1.0, snr_db=25.0, payload_bits=20000,
                         obfuscation=obfuscation)
    out = tmp_path / "run"
    pl.run_scenario(cfg, out, formats=("csv",))
    spectrograms = [out / "method1_spectrogram.csv",
                    out / "method2_spectrogram.csv"]
    _assert_golden(spectrograms + [out / "cfr.csv", out / "tracks.csv"])
    for path in spectrograms:
        s = sp.load_spectrogram_csv(path)
        power, freqs, times = _ref_load_spectrogram_csv(path)
        np.testing.assert_array_equal(s.power, power)
        np.testing.assert_array_equal(s.freqs_hz, freqs)
        np.testing.assert_array_equal(s.times_s, times)


def test_writers_match_loop_writers_across_blocks(tmp_path, monkeypatch):
    # A block holds 97 values here, so every writer splits rows over blocks.
    monkeypatch.setattr(_textfmt, "BLOCK_VALUES", 97)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((9, 40)) + 1j * rng.standard_normal((9, 40))
    series = rx.CfrSeries(subcarriers=np.arange(-4, 5), h_hat=h,
                          t_s=np.arange(40) * 1e-3, csi_rate_hz=1000.0)
    spec = sp.Spectrogram(power=rng.random((50, 7)) ** 3,
                          freqs_hz=np.linspace(-250.0, 250.0, 50),
                          times_s=np.arange(7) * 0.05 + 0.25)
    tracks = [ch.ScattererTrack("torso", np.arange(120) * 0.005,
                                6.0 - np.arange(120) * 0.004),
              ch.static_track(10.0, 1.0, 0.3, label="static-0")]
    paths = [tmp_path / "cfr.csv", tmp_path / "spec.csv",
             tmp_path / "tracks.csv"]
    for (new, ref), obj, path in zip(
            [(rx.dump_cfr_csv, _ref_dump_cfr_csv),
             (sp.save_spectrogram_csv, _ref_save_spectrogram_csv),
             (ch.dump_tracks, _ref_dump_tracks)],
            [series, spec, tracks], paths):
        _tee(new, ref)(obj, path)
    _assert_golden(paths)
