"""Command-line entry point.

Exit codes: 0 success, 2 config error (or a result that conflicts with
one already recorded), 3 numeric failure, 4 partial sweep/eval failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from . import config as cfgmod
from . import harness, report
from .errors import (
    CheckpointFormatError,
    ConfigError,
    ContractViolation,
    FactorizationError,
    IngestionError,
    MergeError,
    NumericFailure,
    QuantizationError,
    ReportError,
)

log = logging.getLogger("qlab")


def _parse_bits(s: str) -> List[int]:
    return [int(p) for p in s.split(",") if p.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qlab", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--config", default="", help="config file (section.key = value)")
        sp.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override a config key, e.g. --set optim.peak_lr=1e-3")

    sp = sub.add_parser("train", help="train a model into a run directory")
    common(sp)
    sp.add_argument("--out-root", default="runs")
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--resume", action="store_true")
    sp.add_argument("--stop-after", type=int, default=None)

    sp = sub.add_parser("branch", help="cool down a trunk run from a branch step")
    sp.add_argument("--run", required=True, help="parent run directory")
    sp.add_argument("--step", required=True, type=int)
    sp.add_argument("--decay-frac", type=float, default=0.1)
    sp.add_argument("--decay-steps", type=int, default=None)
    sp.add_argument("--out-root", default=None)
    sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("quantize", help="quantize a single checkpoint file")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--bits", type=int, default=4)
    sp.add_argument("--method", choices=("rtn", "gptq"), default="gptq")
    sp.add_argument("--group", type=int, default=128)
    sp.add_argument("--calib-samples", type=int, default=128)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config", default="", help="data config; defaults to the run manifest")
    sp.add_argument("--set", action="append", default=[])

    sp = sub.add_parser("eval", help="quantize and evaluate checkpoints of a run")
    sp.add_argument("--run", required=True)
    sp.add_argument("--bits", type=_parse_bits, default=[3, 4])
    sp.add_argument("--method", choices=("rtn", "gptq"), default=None)
    sp.add_argument("--steps", type=_parse_bits, default=None)
    sp.add_argument("--kind", default="ckpt", help="checkpoint family, e.g. ckpt or lawa5")

    sp = sub.add_parser("average", help="rolling weight average over a run's checkpoints")
    sp.add_argument("--run", required=True)
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--interval", type=int, default=500)

    sp = sub.add_parser("soup", help="weighted merge of checkpoints")
    sp.add_argument("--ckpt", action="append", required=True, metavar="PATH:WEIGHT")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("report", help="SVG plot of a metric across runs")
    sp.add_argument("--run", action="append", required=True)
    sp.add_argument("--metric", required=True)
    sp.add_argument("--x", default="tokens_seen")
    sp.add_argument("--logx", action="store_true")
    sp.add_argument("--no-lr-overlay", action="store_true")
    sp.add_argument("--out", default="plot.svg")
    sp.add_argument("--title", default="")

    sp = sub.add_parser("sweep", help="run every cell of a sweep plan")
    sp.add_argument("--plan", required=True)
    sp.add_argument("--out-root", default="runs")
    sp.add_argument("--force", action="store_true")
    return p


def _cmd_quantize(args) -> int:
    from .model import load_checkpoint
    from .quant import QuantConfig, quantize_model, save_quantized

    ckpt = load_checkpoint(args.ckpt)
    cfg_path = args.config
    if not cfg_path:
        manifest = os.path.join(os.path.dirname(os.path.abspath(args.ckpt)), harness.MANIFEST)
        if os.path.isfile(manifest):
            cfg_path = manifest
    calib = None
    if args.method == "gptq":
        if not cfg_path:
            raise ConfigError("gptq needs --config (or a run manifest) for calibration data")
        cfg = (
            harness.load_manifest(os.path.dirname(cfg_path))
            if os.path.basename(cfg_path) == harness.MANIFEST
            else cfgmod.resolve(cfg_path, args.set)
        )
        cfg["quant.calib_samples"] = args.calib_samples
        data = harness.build_data(cfg)
        calib = data.calibration(cfg)
    qcfg = QuantConfig(bits=args.bits, group_size=args.group, method=args.method)
    qm, stats = quantize_model(ckpt, calib, qcfg)
    save_quantized(args.out, qm, overwrite=True)
    for s in stats:
        rec = "" if s.recon_error is None else f" recon {s.recon_error:.4g}"
        log.info("%s: weight err %.4g%s", s.name, s.weight_error, rec)
    print(args.out)
    return 0


def _dispatch(args) -> int:
    if args.cmd == "train":
        cfg = cfgmod.resolve(args.config, args.set)
        run_dir = harness.cmd_train(
            cfg, args.out_root, force=args.force, resume=args.resume,
            stop_after=args.stop_after,
        )
        print(run_dir)
        return 0
    if args.cmd == "branch":
        run_dir = harness.cmd_branch(
            args.run, args.step, args.decay_frac,
            out_root=args.out_root, decay_steps=args.decay_steps, force=args.force,
        )
        print(run_dir)
        return 0
    if args.cmd == "quantize":
        return _cmd_quantize(args)
    if args.cmd == "eval":
        records, failures = harness.cmd_quantize_eval(
            args.run, bits=args.bits, method=args.method, steps=args.steps, kind=args.kind
        )
        print(f"{len(records)} checkpoints evaluated, {len(failures)} failures")
        return 4 if failures else 0
    if args.cmd == "average":
        for path in harness.cmd_average(args.run, args.k, args.interval):
            print(path)
        return 0
    if args.cmd == "soup":
        inputs = []
        for item in args.ckpt:
            path, _, w = item.rpartition(":")
            if not path:
                raise ConfigError(f"soup inputs look like path:weight, got {item!r}")
            try:
                inputs.append((path, float(w)))
            except ValueError:
                raise ConfigError(f"soup weight must be a number, got {item!r}") from None
        print(harness.cmd_soup(inputs, args.out))
        return 0
    if args.cmd == "report":
        svg, csv = report.cmd_report(
            args.run, args.metric, x=args.x, logx=args.logx,
            lr_overlay=not args.no_lr_overlay, out=args.out, title=args.title,
        )
        print(svg)
        print(csv)
        return 0
    if args.cmd == "sweep":
        dirs, summary, failures = harness.cmd_sweep(args.plan, args.out_root, force=args.force)
        print(summary)
        return 4 if failures else 0
    raise ConfigError(f"unknown command {args.cmd}")


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, IngestionError, ReportError, CheckpointFormatError, ContractViolation,
            MergeError) as exc:
        log.error("%s", exc)
        return 2
    except (NumericFailure, FactorizationError, QuantizationError) as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
