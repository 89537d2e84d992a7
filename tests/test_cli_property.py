"""Property: any argument list ends as exit 0, argparse's exit 2, or one error line.

Argument lists are drawn from each subcommand's own flags, with hostile
values: NaN, infinities, -0, negative and huge integers, empty strings,
and missing, directory, empty and garbage paths (outputs also in missing
directories and under a regular file). A run that fails must print exactly
one ``Name: detail`` line on stderr (``note:`` lines aside), naming a
ProsoVCError whose exit code is the return value.

Inputs are tiny and the checkpoint has tiny dimensions. Flags that set an
amount of work (--gl-iters, --epochs, --levels) stay small; huge integers
go only to --seed and --kmeans-k, which do no work per unit.
"""

import argparse
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prosovc import errors
from prosovc.cli import build_parser, main
from prosovc.conditioning import ModelDims
from prosovc.formats import write_ftb_vector
from prosovc.pipeline import CorpusItem, save_bundle, train_toy
from prosovc.signal_core import MelConfig, save_wav
from prosovc.synth import toy_utterance, write_alignment

FLOATS = ["nan", "inf", "-inf", "-0", "0", "-1", "1e308", "-1e308", "5e-324", "1e-300", "", "x"]
COUNTS = ["-1", "-0", "0", "1", "2", "", "1.5", "nan"]
HUGE = [str(2**63), str(10**30)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_property")
    mel_cfg = MelConfig(n_mels=8)
    dims = ModelDims(speaker_dim=4, t_embed_dim=4, style_dim=4, cond_hidden=4, dec_hidden=4)
    corpus = root / "corpus"
    corpus.mkdir()
    items = []
    for spk, f0 in enumerate((140.0, 210.0)):
        wave, align = toy_utterance(seed=spk, base_f0=f0, duration=0.6)
        save_wav(wave, corpus / f"spk{spk}_utt0.wav")
        write_alignment(align, corpus / f"spk{spk}_utt0.tsv")
        items.append(CorpusItem(f"spk{spk}_utt0", f"spk{spk}", wave, align))
    bundle, _ = train_toy(items, epochs=1, seed=0, dims=dims, mel_cfg=mel_cfg, kmeans_k=2)
    save_bundle(root / "tiny.pfck", bundle)
    n_frames = mel_cfg.frame_count(len(items[0].wave))
    write_ftb_vector(root / "curve.ftb", np.full(n_frames, 0.1))
    write_ftb_vector(root / "short_curve.ftb", np.zeros(3))
    (root / "mod.txt").write_text("octave_shift = 0.25\nrate_multiplier = 1.1\n", encoding="utf-8")
    src, align, trg = (corpus / "spk0_utt0.wav", corpus / "spk0_utt0.tsv", corpus / "spk1_utt0.wav")
    (root / "pairs.tsv").write_text(f"{src}\t{align}\t{trg}\n", encoding="utf-8")
    (root / "garbage.bin").write_bytes(np.random.default_rng(0).bytes(300))
    (root / "empty").write_bytes(b"")
    (root / "adir").mkdir()
    (root / "out").mkdir()
    return root


def value_strategies(root):
    """flag -> (good, hostile) strategies of argv values, per subcommand.

    A list value stands for several argv words; an empty list for a switch.
    """
    corpus = root / "corpus"
    bad_in = st.sampled_from([str(root / "missing"), str(root / "adir"), str(root / "garbage.bin"),
                              str(root / "empty"), ""])

    def path_in(*good):
        return st.sampled_from([str(p) for p in good]), bad_in

    def path_out(name):
        return st.just(str(root / "out" / name)), st.sampled_from(
            [str(root / "nodir" / name), str(root / "empty" / name), str(root / "adir"), ""])

    def number(lo, hi):
        return st.floats(lo, hi).map(repr), st.sampled_from(FLOATS)

    def count(lo, hi, huge=False):
        return st.integers(lo, hi).map(str), st.sampled_from(COUNTS + (HUGE if huge else []))

    seed = count(0, 5, huge=True)
    kmeans_k = count(2, 8, huge=True)
    wav = path_in(corpus / "spk0_utt0.wav", corpus / "spk1_utt0.wav")
    tsv = path_in(corpus / "spk0_utt0.tsv")
    ckpt = path_in(root / "tiny.pfck")
    gl_iters = count(0, 2)
    return {
        "extract": {"--in": wav, "--out": path_out("feat"), "--alignment": tsv, "--ckpt": ckpt,
                    "--kmeans-k": kmeans_k, "--f0-min": number(50.0, 100.0), "--f0-max": number(300.0, 600.0),
                    "--yin-threshold": number(0.05, 0.3), "--seed": seed},
        "convert": {"--src": wav, "--trg": wav, "--src-align": tsv, "--ckpt": ckpt,
                    "--out": path_out("o.wav"), "--report": path_out("report.json"),
                    "--octave": number(-1.0, 1.0), "--semitones": number(-3.0, 3.0),
                    "--energy-gain": number(-1.0, 1.0),
                    "--f0-curve": (st.just(str(root / "curve.ftb")),
                                   bad_in | st.just(str(root / "short_curve.ftb"))),
                    "--rate": number(0.5, 2.0), "--rate-control": (st.just([]), st.just([])),
                    "--mod-file": path_in(root / "mod.txt"), "--gl-iters": gl_iters, "--seed": seed},
        "train-toy": {"--corpus": path_in(corpus), "--epochs": count(1, 1), "--seed": seed,
                      "--ckpt": path_out("c.pfck"), "--lr": number(1e-4, 1e-2), "--kmeans-k": kmeans_k},
        "sweep": {"--pairs": path_in(root / "pairs.tsv"), "--ckpt": ckpt, "--out": path_out("s.csv"),
                  "--mode": (st.sampled_from(["f0", "rate"]), st.sampled_from(["tempo", ""])),
                  "--levels": (st.lists(number(0.6, 1.4)[0], min_size=1, max_size=3),
                               st.lists(st.sampled_from(FLOATS), min_size=1, max_size=3)),
                  "--gl-iters": gl_iters, "--seed": seed},
    }


def subcommand_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[0]: a.required for a in sp._actions if a.option_strings[0] != "-h"}
            for name, sp in sub.choices.items()}


def test_every_flag_has_a_value_strategy(tmp_path):
    table = value_strategies(tmp_path)
    assert {name: set(flags) for name, flags in subcommand_flags().items()} == \
        {name: set(flags) for name, flags in table.items()}


@st.composite
def argv_for(draw, command, root):
    """A few flags get a hostile value or, if required, may be left out; the rest are good."""
    required = subcommand_flags()[command]
    table = value_strategies(root)[command]
    hostile = draw(st.sets(st.sampled_from(sorted(table)), max_size=2))
    argv = [command]
    for flag, (good, bad) in table.items():
        if flag in hostile and required[flag] and draw(st.booleans()):
            continue
        if required[flag] or flag in hostile or draw(st.booleans()):
            value = draw(bad if flag in hostile else good)
            argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return argv


def run_main(argv):
    """(exit code, stderr); stderr is None when argparse itself exited."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        try:
            return main(argv), stderr.getvalue()
        except SystemExit as exc:
            return exc.code, None


def assert_one_outcome(argv, root):
    cwd = os.getcwd()
    os.chdir(root)  # an empty --out prefix writes into the working directory
    try:
        code, err = run_main(argv)
    finally:
        os.chdir(cwd)
    if err is None:
        assert code == 2, (argv, code)
        return
    lines = [line for line in err.splitlines() if not line.startswith("note: ")]
    if code == 0:
        assert lines == [], (argv, err)
        return
    assert len(lines) == 1, (argv, err)
    name, _, detail = lines[0].partition(": ")
    cls = getattr(errors, name, None)
    assert isinstance(cls, type) and issubclass(cls, errors.ProsoVCError) and detail, (argv, err)
    assert cls.exit_code == code, (argv, err, code)


@pytest.mark.parametrize("command, examples", [("extract", 40), ("convert", 40), ("train-toy", 30),
                                               ("sweep", 30)])
def test_cli_ends_in_one_outcome(files, command, examples):
    @settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=argv_for(command, files))
    def check(argv):
        assert_one_outcome(argv, files)

    check()
