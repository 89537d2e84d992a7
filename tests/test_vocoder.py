import sys
import threading

import numpy as np
import pytest

from conftest import force_runs, project_magnitude, sine_wave
from prosovc import signal_core, vocoder
from prosovc.signal_core import (
    FRAME_BLOCK,
    RUN_BLOCK,
    MelConfig,
    MelSpectrogram,
    _normalise,
    _padded_window,
    _wola_buffers,
    frame_blocks,
    istft,
    mel_spectrogram,
    stft,
)
from prosovc.synth import toy_utterance
from prosovc.vocoder import _phase_stream, _project, griffin_lim, mel_to_linear

SR = 22050


def test_floor_mel_maps_to_near_zero(mel_cfg):
    mel = MelSpectrogram(np.full((10, mel_cfg.n_mels), np.log(mel_cfg.log_floor)), mel_cfg)
    linear = mel_to_linear(mel)
    assert linear.shape == (10, mel_cfg.n_bins)
    assert linear.max() ** 2 < 1e-6
    assert linear.min() >= 0.0


def test_resynthesis_keeps_the_input_rms(mel_cfg):
    # mel_to_linear gives magnitudes, not power: 5.7 against 0.16 when it returned power
    wave, _ = toy_utterance(0, base_f0=140.0, duration=3.0)
    out = griffin_lim(mel_to_linear(mel_spectrogram(wave, mel_cfg)), mel_cfg, n_iters=30, seed=0)
    rms_in, rms_out = (np.sqrt(np.mean(w.samples ** 2)) for w in (wave, out))
    assert abs(rms_out - rms_in) < 0.05 * rms_in


def test_mel_roundtrip_argmax_bin(mel_cfg):
    mel = mel_spectrogram(sine_wave(1000.0, 1.0), mel_cfg)
    linear = mel_to_linear(mel)
    target_bin = 1000.0 / (SR / mel_cfg.fft_size)
    interior = np.argmax(linear[2:-2], axis=1)
    assert np.all(np.abs(interior - target_bin) <= 1.0)


def test_zero_magnitudes_give_zero_waveform(mel_cfg):
    wave = griffin_lim(np.zeros((20, mel_cfg.n_bins)), mel_cfg, n_iters=5, seed=0)
    assert not wave.samples.any()


def test_griffin_lim_output_length(mel_cfg):
    rng = np.random.default_rng(0)
    mag = np.abs(rng.standard_normal((87, mel_cfg.n_bins)))
    wave = griffin_lim(mag, mel_cfg, n_iters=2, seed=0)
    assert len(wave) == 86 * mel_cfg.hop == 22016


def test_griffin_lim_recovers_sine_frequency(mel_cfg):
    tone = sine_wave(1000.0, 1.0)
    mag = np.abs(stft(tone.samples, mel_cfg))
    wave = griffin_lim(mag, mel_cfg, n_iters=60, seed=0)
    spectrum = np.abs(np.fft.rfft(wave.samples))
    dominant = np.fft.rfftfreq(len(wave.samples), 1 / SR)[np.argmax(spectrum)]
    assert abs(dominant - 1000.0) <= SR / mel_cfg.fft_size  # within one STFT bin


def test_griffin_lim_deterministic(mel_cfg):
    rng = np.random.default_rng(1)
    mag = np.abs(rng.standard_normal((25, mel_cfg.n_bins)))
    a = griffin_lim(mag, mel_cfg, n_iters=8, seed=7)
    b = griffin_lim(mag, mel_cfg, n_iters=8, seed=7)
    assert np.array_equal(a.samples, b.samples)


def test_griffin_lim_zero_iters_allowed(mel_cfg):
    rng = np.random.default_rng(2)
    mag = np.abs(rng.standard_normal((10, mel_cfg.n_bins)))
    wave = griffin_lim(mag, mel_cfg, n_iters=0, seed=0)
    assert len(wave) == 9 * mel_cfg.hop


def test_spectral_convergence_non_increasing(mel_cfg):
    rng = np.random.default_rng(3)
    mag = np.abs(rng.standard_normal((30, mel_cfg.n_bins)))
    phase = np.random.default_rng(0).uniform(0, 2 * np.pi, mag.shape)
    spec = mag * np.exp(1j * phase)
    errors = []
    for _ in range(15):
        wave = istft(spec, mel_cfg)
        rebuilt = stft(wave, mel_cfg, pad_mode="constant")
        errors.append(np.linalg.norm(np.abs(rebuilt) - mag))
        spec = project_magnitude(rebuilt, mag)
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-6)


def test_griffin_lim_negative_iters_rejected(mel_cfg):
    mag = np.ones((10, mel_cfg.n_bins))
    with pytest.raises(ValueError, match="n_iters"):
        griffin_lim(mag, mel_cfg, n_iters=-5, seed=0)


def test_projection_of_zero_bins_is_mag_with_phase_zero():
    rebuilt = np.array([[0.0 + 0.0j, 3.0 - 4.0j, 0.0 + 0.0j]])
    mag = np.array([[2.0, 10.0, 0.5]])
    out = project_magnitude(rebuilt, mag)
    assert np.array_equal(out[:, [0, 2]], mag[:, [0, 2]] + 0j)
    assert np.allclose(out[0, 1], 6.0 - 8.0j, rtol=0, atol=1e-15)


def test_griffin_lim_leaves_mag_unmodified(mel_cfg):
    mag = np.abs(np.random.default_rng(4).standard_normal((12, mel_cfg.n_bins)))
    before = mag.copy()
    griffin_lim(mag, mel_cfg, n_iters=3, seed=0)
    assert np.array_equal(mag, before)


def reference_griffin_lim(mag, cfg, n_iters, seed):
    """The phase update written as mag * exp(1j * angle(rebuilt))."""
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, mag.shape)
    spec = mag * np.exp(1j * phase)
    for _ in range(n_iters):
        rebuilt = stft(istft(spec, cfg), cfg, pad_mode="constant")
        spec = mag * np.exp(1j * np.angle(rebuilt))
    return istft(spec, cfg)


def test_griffin_lim_matches_angle_phase_update(mel_cfg):
    mag = np.abs(np.random.default_rng(5).standard_normal((40, mel_cfg.n_bins)))
    mag[:, 100:140] = 0.0  # a zero band: the rebuilt spectrum is near zero there
    wave = griffin_lim(mag, mel_cfg, n_iters=60, seed=3)
    ref = reference_griffin_lim(mag, mel_cfg, 60, 3)
    assert np.max(np.abs(wave.samples - ref)) <= 1e-12


# -- the frame-block loop against alternating istft/stft calls ------------------------

GL_CFGS = {
    "1024_1024_256": MelConfig(),
    "hop_200": MelConfig(hop=200),
    "window_800": MelConfig(window=800),
    "512_512_128": MelConfig(fft_size=512, window=512, hop=128),
}


def unbuffered_griffin_lim(mag, cfg, n_iters, seed):
    """The loop griffin_lim must match bit for bit: one istft and one stft call per iteration."""
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, mag.shape)
    spec = mag * np.exp(1j * phase)
    for _ in range(n_iters):
        wave = istft(spec, cfg)
        spec = project_magnitude(stft(wave, cfg, pad_mode="constant"), mag)
    return istft(spec, cfg)


def banded_mag(n_frames, cfg):
    mag = np.abs(np.random.default_rng(cfg.hop).standard_normal((n_frames, cfg.n_bins)))
    mag[:, 40:60] = 0.0  # a zero band: rebuilt bins near or at zero
    return mag


def gl_input(kind, cfg):
    if kind == "zero":
        return np.zeros((9, cfg.n_bins))
    return banded_mag(1 if kind == "one_frame" else 23, cfg)


@pytest.mark.parametrize("kind", ["random", "one_frame", "zero"])
@pytest.mark.parametrize("n_iters", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(GL_CFGS))
def test_griffin_lim_equals_unbuffered_loop(name, n_iters, kind):
    cfg = GL_CFGS[name]
    mag = gl_input(kind, cfg)
    wave = griffin_lim(mag, cfg, n_iters=n_iters, seed=11)
    assert np.array_equal(wave.samples, unbuffered_griffin_lim(mag, cfg, n_iters, 11))


@pytest.mark.parametrize("n_frames", [FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 5])
@pytest.mark.parametrize("n_iters", [0, 1, 3])
@pytest.mark.parametrize("name", sorted(GL_CFGS))
def test_griffin_lim_equals_unbuffered_loop_across_blocks(name, n_iters, n_frames):
    cfg = GL_CFGS[name]
    mag = banded_mag(n_frames, cfg)
    wave = griffin_lim(mag, cfg, n_iters=n_iters, seed=11)
    assert np.array_equal(wave.samples, unbuffered_griffin_lim(mag, cfg, n_iters, 11))


def per_frame_divisor(cfg, n_frames):
    """The ISTFT normaliser as one overlap-add per frame, over the whole signal."""
    w2 = _padded_window(cfg.window, cfg.fft_size) ** 2
    norm = np.zeros((n_frames - 1) * cfg.hop + cfg.fft_size)
    for i in range(n_frames):
        norm[i * cfg.hop:i * cfg.hop + cfg.fft_size] += w2
    return np.where(norm > 1e-11, norm, 1.0)


@pytest.mark.parametrize("name", sorted(GL_CFGS))
def test_compact_normaliser_equals_per_frame_overlap_add(name):
    cfg = GL_CFGS[name]
    k = -(-cfg.fft_size // cfg.hop)
    for n_frames in sorted({1, 2, k - 1, k, 2 * k, 50, 1723}):
        _, blocks, divisor = _wola_buffers(cfg, n_frames)
        signal = np.random.default_rng(n_frames).random(blocks.shape)
        blocks[:] = signal
        # in pieces cut at the head, interior and tail edges, as runs finish their rows
        cuts = np.unique(np.clip([0, 1, k - 1, k, n_frames - 1, n_frames, n_frames + 1, len(blocks)],
                                 0, len(blocks)))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            _normalise(blocks, divisor, n_frames, lo, hi)
        naive = per_frame_divisor(cfg, n_frames)
        assert np.array_equal(blocks.reshape(-1)[:len(naive)], signal.reshape(-1)[:len(naive)] / naive), n_frames


# 5 frames make one run at k = 4; the others cross block and run edges
@pytest.mark.parametrize("n_frames", [5, 64, 65, 173, 300])
@pytest.mark.parametrize("name", sorted(GL_CFGS))
def test_griffin_lim_is_the_same_on_any_number_of_runs(monkeypatch, name, n_frames):
    cfg = GL_CFGS[name]
    mag = banded_mag(n_frames, cfg)
    outputs = {}
    for count in (1, 2, 3):
        force_runs(monkeypatch, count)
        runs, _, _ = _wola_buffers(cfg, n_frames)
        assert len(runs) == min(count, n_frames // (-(-cfg.fft_size // cfg.hop) - 1))
        outputs[count] = [griffin_lim(mag, cfg, n_iters=n_iters, seed=5).samples.tobytes() for n_iters in (0, 1, 5)]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def traced_project(monkeypatch, fail_off_main=False):
    """Replace vocoder._project with one that records the threads calling it and,
    if asked, raises on every thread but the main one: the frames of later runs."""
    threads = set()

    def project(rows, *args):
        threads.add(threading.current_thread())
        if fail_off_main and threading.current_thread() is not threading.main_thread():
            raise RuntimeError("a later run failed")
        return _project(rows, *args)

    monkeypatch.setattr(vocoder, "_project", project)
    return threads


def test_no_worker_thread_outlives_griffin_lim(monkeypatch, mel_cfg):
    force_runs(monkeypatch, 3)
    threads = traced_project(monkeypatch)
    before = threading.active_count()
    griffin_lim(banded_mag(173, mel_cfg), mel_cfg, n_iters=2, seed=0)
    assert threading.active_count() == before
    assert len(threads) == 3  # the calling thread and two workers
    assert not any(thread.is_alive() for thread in threads if thread is not threading.main_thread())


def test_a_worker_error_reaches_the_caller_and_leaves_no_thread(monkeypatch, mel_cfg):
    force_runs(monkeypatch, 2)
    threads = traced_project(monkeypatch, fail_off_main=True)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="a later run failed"):
        griffin_lim(banded_mag(173, mel_cfg), mel_cfg, n_iters=3, seed=0)
    assert threading.active_count() == before
    assert len(threads) == 2
    assert not any(thread.is_alive() for thread in threads if thread is not threading.main_thread())


def test_four_runs_under_fast_thread_switching_match_one_run(monkeypatch, mel_cfg):
    # more runs than MAX_RUNS and than the 2 cores the tests were measured on, switched every
    # microsecond: a write outside a run's own rows, or a shared row summed out of order, shows here
    mag = banded_mag(300, mel_cfg)
    force_runs(monkeypatch, 1)
    one_run = griffin_lim(mag, mel_cfg, n_iters=4, seed=2).samples.tobytes()
    force_runs(monkeypatch, 4)
    assert len(_wola_buffers(mel_cfg, 300)[0]) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert griffin_lim(mag, mel_cfg, n_iters=4, seed=2).samples.tobytes() == one_run
    finally:
        sys.setswitchinterval(interval)


# -- Griffin-Lim in place: halos, carried rows and the split start pass -------------

# GL_CFGS and a hop equal to fft_size: k = 1, no halo and no carried rows
IN_PLACE_CFGS = {**GL_CFGS, "512_512_512": MelConfig(fft_size=512, window=512, hop=512)}


def block_sizes(k):
    """Run blocks of one frame, of k - 2 to k frames (fewer, as many and more
    than the k - 1 rows carried), and of RUN_BLOCK."""
    return sorted({max(size, 1) for size in (1, k - 2, k - 1, k, RUN_BLOCK)})


def assert_in_place_equals_unbuffered(monkeypatch, cfg, n_frames, n_iters=2):
    mag = banded_mag(n_frames, cfg)
    expected = unbuffered_griffin_lim(mag, cfg, n_iters, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for size in block_sizes(signal_core._columns(cfg)):
            monkeypatch.setattr(signal_core, "RUN_BLOCK", size)
            wave = griffin_lim(mag, cfg, n_iters=n_iters, seed=7)
            assert np.array_equal(wave.samples, expected), (n_frames, size)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(IN_PLACE_CFGS))
def test_in_place_runs_and_blocks_equal_unbuffered_loop(monkeypatch, name, count):
    # a halo captured after a neighbour wrote it, or a carry that overlaps its
    # source and is copied wrongly, shows here; threads switch every microsecond
    cfg = IN_PLACE_CFGS[name]
    k = signal_core._columns(cfg)
    force_runs(monkeypatch, count)
    shortest = count * max(k - 1, 1)  # the fewest frames that make `count` runs: halos span most of a run
    for n_frames in (shortest, shortest + 1, 2 * RUN_BLOCK + 5):
        assert len(_wola_buffers(cfg, n_frames)[0]) == count
        assert_in_place_equals_unbuffered(monkeypatch, cfg, n_frames)


@pytest.mark.parametrize("n_frames", [1, 2, 13])
@pytest.mark.parametrize("name", sorted(GL_CFGS))  # every k > 1
def test_upper_halo_reaching_the_last_signal_row_equals_unbuffered_loop(monkeypatch, name, n_frames):
    # the last run holds only the k - 1 rows past the last frame's first row,
    # so the upper halo of the run before it ends at the last signal row
    cfg = GL_CFGS[name]
    k = signal_core._columns(cfg)
    spans = [(0, n_frames), (n_frames, n_frames + k - 1)]
    monkeypatch.setattr(signal_core, "frame_runs", lambda n, k: spans)
    runs, signal, _ = _wola_buffers(cfg, n_frames)
    assert runs[0].hi + len(runs[0].upper) == len(signal)
    assert_in_place_equals_unbuffered(monkeypatch, cfg, n_frames)


@pytest.mark.parametrize("n_bins", [1, 513])
@pytest.mark.parametrize("first", [0, 1, 5, 85])
def test_a_runs_phase_stream_continues_one_uniform_draw(first, n_bins):
    n_frames, seed = 97, 11
    expected = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (n_frames, n_bins))
    stream = _phase_stream(seed, first, n_bins)
    phases = np.empty((n_frames - first, n_bins))
    for lo, hi in frame_blocks(n_frames - first, 5):  # blocks, as a run draws them
        stream.random(out=phases[lo:hi])
    phases *= 2.0 * np.pi
    assert np.array_equal(phases, expected[first:])
