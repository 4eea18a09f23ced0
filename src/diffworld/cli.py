"""Command-line front end for file-in/file-out workflows.

Exit codes: 0 success, 1 internal error, 2 I/O or format problem (including
usage errors), 3 validation failure.  All numeric output is formatted
locale-independently, and every subcommand is deterministic given its flags
(the noise seed defaults to 0).  DIFFWORLD_THREADS caps internal worker
threads; results do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import excite, losses, melcodec
from . import fit as fitmod
from . import synth as synthmod
from . import tensor as dt
from .errors import (DiffworldError, DomainError, FormatError, ShapeError,
                     ValidationError)
from .features import (CompressedFeatures, Waveform, WorldFeatures,
                       check_wav_rate, read_features, read_wav, write_features,
                       write_wav)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_FORMAT = 2
EXIT_VALIDATION = 3


def worker_count() -> int:
    """Worker cap from DIFFWORLD_THREADS (an integer >= 1; unset means 1)."""
    raw = os.environ.get("DIFFWORLD_THREADS", "").strip()
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        count = 0  # reported with the values below 1
    if count < 1:
        raise ValidationError(f"DIFFWORLD_THREADS={raw!r} is not an integer >= 1")
    return count


def _load_fir(path) -> synthmod.FirPostFilter:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise FormatError(f"cannot read FIR taps {path}: {err}") from err
    if len(raw) % 8:
        raise FormatError(f"{path}: {len(raw)} bytes is not a multiple of 8 (float64 taps)")
    return synthmod.FirPostFilter(np.frombuffer(raw, dtype="<f8"))


def cmd_synth(args) -> int:
    feats = read_features(args.features)
    cfg = synthmod.SynthConfig.for_features(
        feats, gain_harmonic=args.gain_harmonic, gain_noise=args.gain_noise,
        gain_dry=args.gain_dry, gain_fir=args.gain_fir, noise_seed=args.seed)
    # refuse a rate the WAV header cannot hold before synthesizing
    check_wav_rate(cfg.sample_rate)
    fir = _load_fir(args.fir) if args.fir else None
    y = synthmod.synthesize(feats, cfg, fir=fir)
    write_wav(args.output, Waveform(y.data, cfg.sample_rate))
    return EXIT_OK


def cmd_compress(args) -> int:
    feats = read_features(args.features)
    if isinstance(feats, CompressedFeatures):
        raise ValidationError(f"{args.features}: already compressed")
    write_features(args.output, melcodec.compress(feats, n_mels=args.mels,
                                                  ap_bands=args.ap_bands))
    return EXIT_OK


def cmd_decompress(args) -> int:
    feats = read_features(args.features)
    if isinstance(feats, WorldFeatures):
        raise ValidationError(f"{args.features}: already raw")
    write_features(args.output, melcodec.decompress(feats))
    return EXIT_OK


def _read_envelope(path) -> WorldFeatures:
    feats = read_features(path)
    if not isinstance(feats, WorldFeatures):
        raise ValidationError(f"{path}: expected raw features (spectral envelope)")
    return feats


def cmd_excite_transform(args) -> int:
    src = _read_envelope(args.src_env)
    tgt = _read_envelope(args.tgt_env)
    cfg = synthmod.SynthConfig.for_features(src)
    # transform_formants checks both envelopes' frame counts against the audio
    synthmod.check_clock(args.tgt_env, tgt, cfg)
    wave = read_wav(args.input, expect_sample_rate=src.sample_rate)
    y = excite.transform_formants(wave.samples, src.sp, tgt.sp, cfg,
                                  use_decompressed=args.use_decompressed)
    write_wav(args.output, Waveform(y.data, src.sample_rate))
    return EXIT_OK


def cmd_fit(args) -> int:
    f0_feats = read_features(args.f0)
    wave = read_wav(args.target, expect_sample_rate=f0_feats.sample_rate)
    synth_cfg = synthmod.SynthConfig.for_features(f0_feats, noise_seed=args.seed)
    cfg = fitmod.FitConfig(steps=args.steps, learning_rate=args.lr)
    fitted, trace = fitmod.fit(wave.samples, f0_feats.f0, cfg=cfg,
                               synth_cfg=synth_cfg, n_mels=args.mels,
                               ap_bands=args.ap_bands)
    write_features(args.output, fitted)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("step,msl\n")
            for step, value in enumerate(trace):
                fh.write(f"{step},{value:.9g}\n")
    return EXIT_OK


def cmd_loss(args) -> int:
    a = read_wav(args.a)
    b = read_wav(args.b)
    if a.sample_rate != b.sample_rate:
        raise ValidationError(f"sample rates differ: {a.sample_rate} vs "
                              f"{b.sample_rate}")
    if len(a) != len(b):
        raise ValidationError(f"signal lengths differ: {len(a)} vs {len(b)}")
    cfg = losses.MslConfig(scales=args.scales)
    # the scales share no state; evaluate them on a capped worker pool and
    # sum in scale order so the result is thread-count invariant
    with ThreadPoolExecutor(max_workers=min(worker_count(), args.scales)) as pool:
        futures = [pool.submit(lambda w=w: losses.scale_loss(
            a.samples, b.samples, w).item()) for w in cfg.window_sizes]
        total = sum(f.result() for f in futures)
    print(f"{total:.6f}")
    return EXIT_OK


def cmd_spectrogram(args) -> int:
    wave = read_wav(args.input)
    cfg = synthmod.SynthConfig(sample_rate=wave.sample_rate,
                               fft_size=args.fft_size)
    basis = melcodec.MelBasis.build(wave.sample_rate, cfg.fft_size, args.mels)
    spec = synthmod.stft(wave.samples, cfg.fft_size, cfg.hop).data
    mag = np.hypot(spec[:, 0, :], spec[:, 1, :])
    logmel = np.log10(dt._product(mag, basis.weights.T) + basis.epsilon)
    with open(args.output, "w") as fh:
        for row in logmel:
            fh.write(",".join(f"{v:.9g}" for v in row))
            fh.write("\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is,
    so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="diffworld",
        description="Differentiable WORLD-style vocoder toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize audio from a feature file")
    p.add_argument("features")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--gain-harmonic", type=float, default=1.0)
    p.add_argument("--gain-noise", type=float, default=1.0)
    p.add_argument("--gain-dry", type=float, default=1.0)
    p.add_argument("--gain-fir", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fir", help="raw little-endian float64 FIR taps")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compress", help="compress raw features")
    p.add_argument("features")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--mels", type=int, default=melcodec.DEFAULT_N_MELS)
    p.add_argument("--ap-bands", type=int, default=melcodec.DEFAULT_AP_BANDS)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decompress features")
    p.add_argument("features")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("excite-transform",
                       help="replace a recording's spectral envelope")
    p.add_argument("input")
    p.add_argument("--src-env", required=True)
    p.add_argument("--tgt-env", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--use-decompressed", action="store_true")
    p.set_defaults(func=cmd_excite_transform)

    p = sub.add_parser("fit", help="recover compressed features by gradient descent")
    p.add_argument("target")
    p.add_argument("--f0", required=True, help="feature file supplying the pitch contour")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write a step,msl CSV (row i: loss before update i)")
    p.add_argument("--mels", type=int, default=melcodec.DEFAULT_N_MELS)
    p.add_argument("--ap-bands", type=int, default=melcodec.DEFAULT_AP_BANDS)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("loss", help="multi-spectrogram loss between two WAVs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--scales", type=int, default=6)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("spectrogram", help="log mel spectrogram as CSV")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--mels", type=int, default=melcodec.DEFAULT_N_MELS)
    p.add_argument("--fft-size", type=int, default=1024)
    p.set_defaults(func=cmd_spectrogram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage/help paths
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else EXIT_FORMAT
    try:
        return args.func(args)
    except (ValidationError, DomainError, ShapeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except DiffworldError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as err:  # pragma: no cover - safety net
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
