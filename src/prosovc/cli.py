"""Command-line entry points: extract, convert, train-toy, sweep.

Errors raised by the pipeline surface as a one-line diagnostic on stderr
and a per-subsystem exit code (see errors.py); 0 means every output was
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import evaluate
from .conditioning import ModelDims
from .errors import InsufficientData, ParseError, ProsoVCError, UnreadableFile, UnwritableFile
from .formats import (
    FTB_PROSODY,
    read_ftb,
    write_ftb_matrix,
    write_ftb_prosody,
    write_ftb_vector,
)
from .pipeline import (
    DEFAULT_GL_ITERS,
    DEFAULT_KMEANS_K,
    DEFAULT_LR,
    CorpusItem,
    convert,
    extract_features,
    load_bundle,
    save_bundle,
    train_toy,
)
from .encoders import average_mel_target, load_alignment, speaker_embedding
from .prosody import F0Config, train_unit_codebook, unitize
from .signal_core import MelConfig, load_wav, open_file, read_text_lines, save_wav
from .transform import ModulationSpec

# convert flag (argparse dest) -> ModulationSpec field; a --mod-file key is the field name
_MODULATION_FLAGS = {"octave": "octave_shift", "semitones": "semitone_shift",
                     "energy_gain": "energy_gain", "rate": "rate_multiplier"}

GL_SEED_HELP = "seeds only Griffin-Lim's random start phase; the decoder draws no noise"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prosovc",
                                     description="Prosody-controllable voice conversion (desk scale).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract features from one wav into FTB files")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--alignment", help="phoneme alignment TSV (enables the average-mel prior)")
    p.add_argument("--ckpt", help="checkpoint providing the unit codebook")
    p.add_argument("--kmeans-k", type=int, default=DEFAULT_KMEANS_K)
    p.add_argument("--f0-min", type=float, default=None, help="F0 search floor in Hz")
    p.add_argument("--f0-max", type=float, default=None, help="F0 search ceiling in Hz")
    p.add_argument("--yin-threshold", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("convert", help="convert source speech toward a target speaker")
    p.add_argument("--src", required=True)
    p.add_argument("--trg", required=True)
    p.add_argument("--src-align", required=True, help="source alignment TSV for the content prior")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the run report JSON here")
    p.add_argument("--octave", type=float, default=None)
    p.add_argument("--semitones", type=float, default=None)
    p.add_argument("--energy-gain", type=float, default=None)
    p.add_argument("--f0-curve", help="FTB vector of per-frame log-Hz offsets")
    p.add_argument("--rate", type=float, help="override the speaking-rate ratio (clamped)")
    p.add_argument("--rate-control", action="store_true",
                   help="re-sample the output mel by the conversion rate")
    p.add_argument("--mod-file", help="key=value file with modulation defaults")
    p.add_argument("--gl-iters", type=int, default=DEFAULT_GL_ITERS)
    p.add_argument("--seed", type=int, default=0, help=GL_SEED_HELP)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train-toy", help="train the toy decoder on a corpus directory")
    p.add_argument("--corpus", required=True, help="directory of speakerID_uttID.wav (+ .tsv) files")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ckpt", required=True, help="output checkpoint path")
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--kmeans-k", type=int, default=DEFAULT_KMEANS_K)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("sweep", help="run the modulation sweep over conversion pairs")
    p.add_argument("--pairs", required=True,
                   help="TSV of src_wav<TAB>src_align_tsv<TAB>trg_wav rows")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--mode", choices=("f0", "rate"), default="f0")
    p.add_argument("--levels", type=float, nargs="+")
    p.add_argument("--gl-iters", type=int, default=evaluate.DEFAULT_SWEEP_GL_ITERS)
    p.add_argument("--seed", type=int, default=0, help=GL_SEED_HELP)
    p.set_defaults(func=cmd_sweep)

    return parser


def cmd_extract(args) -> int:
    prefix = Path(args.out)
    if prefix.name in ("", ".."):
        raise ParseError(f"--out {args.out!r} names a directory, not a file prefix")
    wave = load_wav(args.input)
    align = load_alignment(args.alignment) if args.alignment is not None else None
    if args.ckpt is not None:
        bundle = load_bundle(args.ckpt)
        mel_cfg, f0_cfg, speaker_dim, codebook = (bundle.mel_cfg, bundle.f0_cfg,
                                                  bundle.dims.speaker_dim, bundle.codebook)
    else:
        mel_cfg, f0_cfg, speaker_dim, codebook = MelConfig(), F0Config(), ModelDims().speaker_dim, None
    overrides = {"f0_min": args.f0_min, "f0_max": args.f0_max, "yin_threshold": args.yin_threshold}
    try:
        f0_cfg = dataclasses.replace(f0_cfg, **{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise ParseError(f"F0 flags: {exc}") from exc
    # every output is computed before the first file is written, so a failure writes none
    mel, track = extract_features(wave, mel_cfg, f0_cfg)
    spk = speaker_embedding(mel, speaker_dim)
    prior = average_mel_target(mel, align) if align is not None else None
    if codebook is None:
        try:
            codebook = train_unit_codebook([mel], min(args.kmeans_k, mel.n_frames), args.seed)
        except InsufficientData as exc:
            print(f"note: skipping unit sequence ({exc})", file=sys.stderr)
    units = unitize(mel, codebook) if codebook is not None else None

    try:
        prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableFile(f"{prefix.parent}: {exc}") from exc
    write_ftb_matrix(f"{prefix}.mel.ftb", mel.values)
    write_ftb_prosody(f"{prefix}.prosody.ftb", track)
    write_ftb_vector(f"{prefix}.spk.ftb", spk)
    if units is not None:
        write_ftb_matrix(f"{prefix}.units.ftb", np.array(units.pairs, dtype=np.float64))
    if prior is not None:
        write_ftb_matrix(f"{prefix}.prior.ftb", prior.values)
    return 0


def cmd_convert(args) -> int:
    if args.report is not None and Path(args.report).resolve() == Path(args.out).resolve():
        raise ParseError("--report names the same file as --out")
    src = load_wav(args.src)
    trg = load_wav(args.trg)
    align = load_alignment(args.src_align)
    bundle = load_bundle(args.ckpt)
    mod = _modulation_from_args(args)
    result = convert(src, trg, align, bundle, mod,
                     rate_control=args.rate_control, seed=args.seed, gl_iters=args.gl_iters)
    save_wav(result.wave, args.out)
    report = dict(result.report)
    report["source"] = args.src
    report["target"] = args.trg
    report["output"] = args.out
    if args.report is not None:
        try:
            with open_file(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except UnwritableFile:
            # a run that fails leaves no output behind, so the WAV goes too
            Path(args.out).unlink()
            raise
    print(json.dumps({k: report[k] for k in ("mu_src_hz", "mu_trg_hz", "rc_raw", "rc_clamped",
                                             "requested_mean_hz", "out_frames")}))
    return 0


def cmd_train_toy(args) -> int:
    if not (math.isfinite(args.lr) and args.lr > 0):
        raise ParseError(f"--lr must be finite and > 0, got {args.lr}")
    items = _load_corpus(Path(args.corpus))
    bundle, losses = train_toy(items, epochs=args.epochs, seed=args.seed, lr=args.lr,
                               kmeans_k=args.kmeans_k, log=lambda msg: print(msg))
    save_bundle(args.ckpt, bundle)
    print(f"saved checkpoint to {args.ckpt} (final loss {losses[-1]:.6f})")
    return 0


def cmd_sweep(args) -> int:
    try:
        evaluate.sweep_plan(args.mode, args.levels)
    except ValueError as exc:
        raise ParseError(f"--levels: {exc}") from exc
    pair_rows = _load_pair_list(args.pairs)
    bundle = load_bundle(args.ckpt)
    pairs = [(load_wav(s), load_alignment(a), load_wav(t)) for s, a, t in pair_rows]
    rows = evaluate.modulation_sweep(pairs, bundle, levels=args.levels, mode=args.mode,
                                     seed=args.seed, gl_iters=args.gl_iters)
    evaluate.write_sweep_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _modulation_from_args(args) -> ModulationSpec:
    values = load_modulation_file(args.mod_file) if args.mod_file is not None else {}
    for flag, field in _MODULATION_FLAGS.items():
        if getattr(args, flag) is not None:
            values[field] = getattr(args, flag)
    if args.f0_curve is not None:
        values["frame_f0_delta"] = _load_curve(args.f0_curve)
    try:
        return ModulationSpec(**values)
    except ValueError as exc:
        raise ParseError(f"modulation: {exc}") from exc


def load_modulation_file(path) -> dict:
    """Parse a flat key=value modulation file."""
    out, seen = {}, set()
    for lineno, line in read_text_lines(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise UnreadableFile(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise UnreadableFile(f"{path}:{lineno}: repeated key {key!r}")
        seen.add(key)
        if key in _MODULATION_FLAGS.values():
            try:
                out[key] = float(value)
            except ValueError:
                raise UnreadableFile(f"{path}:{lineno}: {key} is not a number: {value!r}") from None
        elif key == "f0_curve":
            out["frame_f0_delta"] = _load_curve(value)
        else:
            raise UnreadableFile(f"{path}:{lineno}: unknown key {key!r}")
    return out


def _load_curve(path) -> np.ndarray:
    kind, payload = read_ftb(path)
    if kind == FTB_PROSODY:
        raise UnreadableFile(f"{path}: expected a vector or matrix FTB, got a prosody track")
    return np.asarray(payload, dtype=np.float64).reshape(-1)


def _load_corpus(root: Path) -> list[CorpusItem]:
    if not root.is_dir():
        raise UnreadableFile(f"{root}: not a directory")
    wavs = sorted(root.glob("*.wav"))
    if not wavs:
        raise InsufficientData(f"{root}: no wav files found")
    items = []
    for wav_path in wavs:
        align_path = wav_path.with_suffix(".tsv")
        if not align_path.exists():
            raise UnreadableFile(f"{align_path}: alignment missing for {wav_path.name}")
        speaker = wav_path.stem.split("_")[0]
        items.append(CorpusItem(wav_path.stem, speaker, load_wav(wav_path),
                                load_alignment(align_path)))
    return items


def _load_pair_list(path) -> list[tuple[str, str, str]]:
    rows = []
    for lineno, line in read_text_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise UnreadableFile(f"{path}:{lineno}: expected src<TAB>align<TAB>trg")
        rows.append((fields[0], fields[1], fields[2]))
    if not rows:
        raise UnreadableFile(f"{path}: pair list is empty")
    return rows


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("seed", "gl_iters"):
            if getattr(args, flag, 0) < 0:
                raise ParseError(f"--{flag.replace('_', '-')} must be >= 0, got {getattr(args, flag)}")
        return args.func(args)
    except ProsoVCError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())
