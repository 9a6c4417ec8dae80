"""Batch command-line front end.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error. All
randomness flows from the config seeds; reruns with identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .pipeline import ConfigError


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="pipeline config JSON")
    sub.add_argument("--out", required=True, help="workspace directory")
    sub.add_argument("--seed", type=int, default=None, help="override seeds.base")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override a config field by dotted path (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asad",
        description="EEG auditory spatial attention detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "execute every stage end to end"),
        ("synth", "generate synthetic recordings (and envelopes)"),
        ("preprocess", "re-reference, bandpass, resample, normalize"),
        ("extract", "segment windows and cache feature tensors"),
        ("train", "train the classifier per window size and seed"),
        ("eval", "evaluate checkpoints on the test partition"),
        ("baseline", "fit and evaluate the linear decoders"),
        ("report", "aggregate metrics, tables and paired tests"),
    ):
        _add_common(sub.add_parser(name, help=help_text))

    dm = sub.add_parser("dump-map", help="write one window's map as PGM + CSV")
    _add_common(dm)
    dm.add_argument("--recording", required=True, help="recording container path")
    dm.add_argument("--window-index", type=int, required=True)
    dm.add_argument("--window-s", type=float, default=None)
    dm.add_argument("--prefix", default="map", help="output file prefix (under --out)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = pipeline.load_config(args.config, args.overrides, args.seed)
        out = Path(args.out)
        if args.command == "run":
            report_dir = pipeline.run_experiment(cfg, out)
            print(f"report written under {report_dir}")
        elif args.command == "dump-map":
            paths = pipeline.dump_map(
                cfg, args.recording, args.window_index, out / args.prefix, args.window_s
            )
            print(f"wrote {paths[0]} and {paths[1]}")
        else:
            out.mkdir(parents=True, exist_ok=True)
            pipeline.run_stage(args.command, cfg, out)
            print(f"stage {args.command} done")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
