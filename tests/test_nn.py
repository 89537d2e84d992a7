import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close_to_oracle, conv1d_backward, pad_frames
from prosovc.nn import conv1d, conv1d_input_grad


def reference_conv1d(w, b, x):
    """conv1d with np.pad and np.repeat: the oracle the pad-free version must match bit for bit."""
    k = w.shape[2]
    pad = k // 2
    t = x.shape[1]
    xp = np.pad(x, ((0, 0), (pad, pad)))
    y = np.repeat(b[:, None], t, axis=1)
    for j in range(k):
        y += w[:, :, j] @ xp[:, j:j + t]
    return y


def reference_conv1d_backward(w, x, dy):
    k = w.shape[2]
    pad = k // 2
    t = x.shape[1]
    xp = np.pad(x, ((0, 0), (pad, pad)))
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dw[:, :, j] = dy @ xp[:, j:j + t].T
        dxp[:, j:j + t] += w[:, :, j].T @ dy
    return dw, dy.sum(axis=1), dxp[:, pad:pad + t]


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1, 3, 5]), t=st.integers(1, 40), c_in=st.integers(1, 6),
       c_out=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_conv1d_and_backward_equal_np_pad_versions(k, t, c_in, c_out, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c_out, c_in, k))
    b = rng.standard_normal(c_out)
    x = rng.standard_normal((c_in, t))
    dy = rng.standard_normal((c_out, t))
    assert np.array_equal(conv1d(w, b, pad_frames(x, w)), reference_conv1d(w, b, x))
    for ours, ref in zip(conv1d_backward(w, pad_frames(x, w), dy), reference_conv1d_backward(w, x, dy),
                         strict=True):
        assert np.array_equal(ours, ref)


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1, 3, 5]), t=st.integers(1, 40), c_in=st.integers(1, 6),
       c_out=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_conv1d_input_grad_on_a_channel_slice_is_that_slice_of_dx(k, t, c_in, c_out, data, seed):
    lo = data.draw(st.integers(0, c_in - 1))
    hi = data.draw(st.integers(lo + 1, c_in))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((c_out, c_in, k))
    x = rng.standard_normal((c_in, t))
    dy = rng.standard_normal((c_out, t))
    assert_close_to_oracle(conv1d_input_grad(w[:, lo:hi], dy), reference_conv1d_backward(w, x, dy)[2][lo:hi])
