"""Command-line entry point.

Exit codes: 0 success, 2 config error (or a run's changed eval or calibration
set, a result that conflicts with one already recorded, or a bad QLAB_THREADS
in a command that runs a parallel region), which `train`, `eval` and `sweep`
find before they write anything (`sweep` checks every cell, and names the
one it refuses), 3 numeric failure, 4 partial sweep/eval failure. Unset run
settings (bits, method, LAWA k and interval) come from the run's manifest.
`eval` and `sweep` record every result in a run's qeval.csv and reuse the
ones it holds; `--force` recomputes them. metrics.csv shows the manifest
method's 3- and 4-bit results.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from . import config as cfgmod
from . import experiments, harness, report
from .errors import ConfigError, QlabError, StoreError
from .quant import METHODS

log = logging.getLogger("qlab")


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
    sp.add_argument("--method", choices=METHODS, default=None,
                    help="default: the settings' quant.method")
    sp.add_argument("--out", required=True)
    common(sp)  # --config defaults to the run manifest next to --ckpt

    sp = sub.add_parser("eval", help="quantize and evaluate checkpoints of a run")
    sp.add_argument("--run", required=True)
    sp.add_argument("--bits", type=cfgmod.parse_int_list, default=None,
                    help="default: the manifest's quant.bits")
    sp.add_argument("--method", choices=METHODS, default=None,
                    help="default: the manifest's quant.method")
    sp.add_argument("--steps", type=cfgmod.parse_int_list, default=None)
    sp.add_argument("--kind", default="ckpt",
                    help="checkpoint family, e.g. ckpt or lawa5; one the run lacks exits 2")
    sp.add_argument("--force", action="store_true",
                    help="recompute the results qeval.csv holds, and replace them")

    sp = sub.add_parser("average", help="rolling weight average over a run's checkpoints")
    sp.add_argument("--run", required=True)
    sp.add_argument("--k", type=int, default=None, help="default: the manifest's lawa.k")
    sp.add_argument("--interval", type=int, default=None,
                    help="default: the manifest's lawa.interval")

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

    sp = sub.add_parser("sweep", help="run every cell of a plan; judge its claim, if it names one")
    sp.add_argument("--plan", required=True)
    sp.add_argument("--out-root", default="runs")
    sp.add_argument("--force", action="store_true",
                    help="retrain every run and recompute its results")
    sp.add_argument("--set", action="append", default=[], metavar="K=V",
                    help="override a setting, sweep.* axis or plan.* key, e.g. --set sweep.seeds=1")
    return p


def _cmd_quantize(args) -> int:
    """Quantize one checkpoint under its run's config (the manifest next to
    it, or --config), then --set."""
    from .model import load_checkpoint
    from .quant import quantize_model, save_quantized

    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):  # found before any GPTQ solve, not after
        raise StoreError(f"cannot write {args.out}: no directory {out_dir}")
    ckpt = load_checkpoint(args.ckpt)
    manifest = os.path.join(os.path.dirname(os.path.abspath(args.ckpt)), cfgmod.MANIFEST)
    run_cfg = cfgmod.resolve(args.config or (manifest if os.path.isfile(manifest) else ""))
    cfg = cfgmod.apply_overrides(dict(run_cfg), args.set)
    qcfg = cfgmod.quant_config(cfg, args.bits, args.method)
    calib = None
    if qcfg.calibrated:
        # the run's own sets must still be the recorded ones; --set may
        # then choose another calibration set (say, fewer samples) from it
        data = harness.build_data(run_cfg)
        calib = data.calib_set if cfg == run_cfg else data.calibration(cfg)
    qm, stats = quantize_model(ckpt, calib, qcfg)
    save_quantized(args.out, qm, overwrite=True)
    for s in stats:
        rec = "" if s.recon_error is None else f" recon {s.recon_error:.4g}"
        log.info("%s: weight err %.4g%s", s.name, s.weight_error, rec)
    print(args.out)
    return 0


def _cmd_sweep(args) -> int:
    """Run a plan; prints summary.csv's path and, for a plan.claim, one line
    per comparison and a tally (not judged when a cell failed). The
    comparisons are `harness.judge`'s, over the records read back from the
    out-root's run directories."""
    plan, failures, summary = harness.cmd_sweep(args.plan, args.out_root, args.force, args.set)
    print(summary)
    if plan.claim and failures:
        log.error("%s not judged: %d of %d cells failed", plan.claim, len(failures),
                  len(plan.cells))
    elif plan.claim:
        results = harness.judge(plan, args.out_root)
        for r in results:
            print(r.line)
        tally = experiments.CLAIMS[plan.claim][1]
        print(f"{sum(r.holds for r in results)}/{len(results)} {tally}")
    return 4 if failures else 0


def _dispatch(args) -> int:
    if args.cmd == "train":
        cfg = cfgmod.resolve(args.config, args.set)
        run_dir = harness.cmd_train(
            cfg, args.out_root, force=args.force, stop_after=args.stop_after
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
            args.run, bits=args.bits, method=args.method, steps=args.steps, kind=args.kind,
            force=args.force,
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
        return _cmd_sweep(args)
    raise ConfigError(f"unknown command {args.cmd}")


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except QlabError as exc:
        log.error("%s", exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
