import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosovc.encoders import (
    Alignment,
    AlignSegment,
    average_mel_target,
    load_alignment,
    speaker_embedding,
)
from prosovc.errors import NonMonotonic, OutOfRange, Overlap, ParseError, TooShort, UnreadableFile
from prosovc.signal_core import MelConfig, MelSpectrogram


def one_band_cfg():
    # 1 frame per second: sr 8, hop 8
    return MelConfig(sample_rate=8, fft_size=8, hop=8, window=8, n_mels=1, fmin=0.0, fmax=4.0)


def mel_1d(values):
    return MelSpectrogram(np.asarray(values, dtype=float).reshape(-1, 1), one_band_cfg())


# -- alignment parsing -------------------------------------------------------------

def test_load_alignment_row(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("AH\t0.00\t0.12\n")
    align = load_alignment(path)
    assert align.segments == (AlignSegment("AH", 0.0, 0.12),)


def test_load_alignment_gap_tolerated(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("A\t0.0\t0.1\nB\t0.5\t0.6\n")
    align = load_alignment(path)
    assert len(align.segments) == 2


def test_load_alignment_overlap(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("A\t0.0\t0.3\nB\t0.2\t0.6\n")
    with pytest.raises(Overlap):
        load_alignment(path)


def test_load_alignment_out_of_order(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("A\t0.5\t0.6\nB\t0.0\t0.1\n")
    with pytest.raises(NonMonotonic):
        load_alignment(path)


def test_load_alignment_bad_row(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_text("A\t0.0\n")
    with pytest.raises(ParseError):
        load_alignment(path)
    path.write_text("A\tzero\t0.1\n")
    with pytest.raises(ParseError):
        load_alignment(path)


def test_load_alignment_missing(tmp_path):
    with pytest.raises(UnreadableFile):
        load_alignment(tmp_path / "none.tsv")


def test_alignment_degenerate_segment():
    with pytest.raises(NonMonotonic):
        Alignment((AlignSegment("A", 0.2, 0.2),))


# -- average-mel prior ------------------------------------------------------------------

def test_average_hand_case():
    mel = mel_1d([1.0, 1.0, 3.0, 5.0])
    align = Alignment((AlignSegment("A", 0.0, 2.0), AlignSegment("B", 2.0, 4.0)))
    out = average_mel_target(mel, align)
    assert np.allclose(out.values.ravel(), [1.0, 1.0, 4.0, 4.0])


def test_average_single_segment_is_global_mean():
    mel = mel_1d([2.0, 4.0, 6.0])
    align = Alignment((AlignSegment("A", 0.0, 3.0),))
    out = average_mel_target(mel, align)
    assert np.allclose(out.values, 4.0)


def test_average_idempotent():
    rng = np.random.default_rng(0)
    mel = mel_1d(rng.standard_normal(10))
    align = Alignment((AlignSegment("A", 0.0, 3.0), AlignSegment("B", 5.0, 8.0)))
    once = average_mel_target(mel, align)
    twice = average_mel_target(once, align)
    assert np.array_equal(once.values, twice.values)


def test_average_gap_frames_averaged_separately():
    mel = mel_1d([1.0, 1.0, 10.0, 20.0, 2.0, 2.0])
    align = Alignment((AlignSegment("A", 0.0, 2.0), AlignSegment("B", 4.0, 6.0)))
    out = average_mel_target(mel, align)
    assert np.allclose(out.values.ravel(), [1.0, 1.0, 15.0, 15.0, 2.0, 2.0])


def test_average_out_of_range():
    mel = mel_1d([1.0, 2.0])
    align = Alignment((AlignSegment("A", 0.0, 5.0),))
    with pytest.raises(OutOfRange):
        average_mel_target(mel, align)


def test_average_time_shift_covariance():
    rng = np.random.default_rng(1)
    base = rng.standard_normal(9)
    mel = mel_1d(np.concatenate([[base[0]], base]))
    align = Alignment((AlignSegment("A", 0.0, 4.0), AlignSegment("B", 4.0, 9.0)))
    out = average_mel_target(mel_1d(base), align)
    later = Alignment(tuple(AlignSegment(s.label, s.start + 1.0, s.end + 1.0) for s in align.segments))
    shifted = average_mel_target(mel, later)
    assert np.allclose(shifted.values[1:].ravel(), out.values.ravel())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_average_preserves_segment_means(n_frames, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_frames)
    split = int(rng.integers(1, n_frames))
    align = Alignment((AlignSegment("A", 0.0, float(split)),
                       AlignSegment("B", float(split), float(n_frames))))
    out = average_mel_target(mel_1d(values), align)
    assert out.values[:split].mean() == pytest.approx(values[:split].mean())
    assert out.values[split:].mean() == pytest.approx(values[split:].mean())


# -- speaker embedding ------------------------------------------------------------------

def synth_speaker_mel(envelope, seed, n_frames=50, n_mels=16):
    rng = np.random.default_rng(seed)
    cfg = MelConfig(sample_rate=8, fft_size=8, hop=8, window=8, n_mels=n_mels, fmin=0.0, fmax=4.0)
    values = envelope[None, :] + 0.3 * rng.standard_normal((n_frames, n_mels))
    return MelSpectrogram(values, cfg)


def test_speaker_embedding_deterministic():
    mel = synth_speaker_mel(np.linspace(-2, 1, 16), seed=0)
    a = speaker_embedding(mel, 64)
    b = speaker_embedding(mel, 64)
    assert np.array_equal(a, b)


def test_speaker_embedding_unit_norm():
    mel = synth_speaker_mel(np.linspace(0, 2, 16), seed=1)
    assert np.linalg.norm(speaker_embedding(mel, 64)) == pytest.approx(1.0, abs=1e-9)


def test_speaker_embedding_permutation_invariant():
    mel = synth_speaker_mel(np.linspace(-1, 1, 16), seed=2)
    perm = np.random.default_rng(3).permutation(mel.n_frames)
    shuffled = MelSpectrogram(mel.values[perm], mel.config)
    assert np.allclose(speaker_embedding(mel, 64), speaker_embedding(shuffled, 64))


def test_speaker_embedding_separates_speakers():
    env_a = np.linspace(-3.0, 2.0, 16)
    env_b = np.linspace(2.0, -3.0, 16)
    emb_a = [speaker_embedding(synth_speaker_mel(env_a, seed=s), 64) for s in range(20)]
    emb_b = [speaker_embedding(synth_speaker_mel(env_b, seed=100 + s), 64) for s in range(20)]

    def mean_cos(xs, ys):
        return float(np.mean([x @ y for x in xs for y in ys if x is not y]))

    within = 0.5 * (mean_cos(emb_a, emb_a) + mean_cos(emb_b, emb_b))
    across = mean_cos(emb_a, emb_b)
    assert within - across > 0.1


def test_speaker_embedding_too_short():
    cfg = MelConfig(sample_rate=8, fft_size=8, hop=8, window=8, n_mels=4, fmin=0.0, fmax=4.0)
    with pytest.raises(TooShort):
        speaker_embedding(MelSpectrogram(np.zeros((1, 4)), cfg), 64)
