"""Command-line entry point.

Exit codes: 0 success, 2 config error (or a result that conflicts with
one already recorded), 3 numeric failure, 4 partial sweep/eval/experiment
failure; each error class carries its code. QLAB_THREADS sets the worker
threads and the BLAS threads. Unset run settings (bits, method, LAWA k
and interval) come from the run's manifest.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from . import config as cfgmod
from . import experiments, harness, parallel, report
from .errors import ConfigError, QlabError

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
    sp.add_argument("--method", choices=("rtn", "gptq"), default=None,
                    help="default: the settings' quant.method")
    sp.add_argument("--out", required=True)
    common(sp)  # --config defaults to the run manifest next to --ckpt

    sp = sub.add_parser("eval", help="quantize and evaluate checkpoints of a run")
    sp.add_argument("--run", required=True)
    sp.add_argument("--bits", type=_parse_bits, default=None,
                    help="default: the manifest's quant.bits")
    sp.add_argument("--method", choices=("rtn", "gptq"), default=None,
                    help="default: the manifest's quant.method")
    sp.add_argument("--steps", type=_parse_bits, default=None)
    sp.add_argument("--kind", default="ckpt", help="checkpoint family, e.g. ckpt or lawa5")

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

    sp = sub.add_parser("sweep", help="run every cell of a sweep plan")
    sp.add_argument("--plan", required=True)
    sp.add_argument("--out-root", default="runs")
    sp.add_argument("--force", action="store_true")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--corpus", required=True)
    shared.add_argument("--profile", choices=sorted(experiments.TRUNK_STEPS), default="desk",
                        help="configs/<profile>.cfg")
    shared.add_argument("--out-root", default=None, help="default: runs/<experiment>")
    shared.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    shared.add_argument("--bits", type=int, default=None, help="default: 3 (lr-sweep: 4)")
    sp = sub.add_parser("experiment", help="run a protocol driver (acceptance criteria 9-11)")
    exp = sp.add_subparsers(dest="experiment", required=True)
    sp = exp.add_parser("cooldown", parents=[shared],
                        help="constant-LR trunk vs cooldown branches (default: its thirds)")
    sp.add_argument("--trunk-steps", type=int, default=None)
    sp.add_argument("--branch-steps", type=int, nargs="+", default=None)
    sp = exp.add_parser("lr-sweep", parents=[shared],
                        help="WSD runs at several peak LRs under one budget")
    sp.add_argument("--total-steps", type=int, default=None)
    sp.add_argument("--lrs", type=float, nargs="+", default=[3e-4, 1e-3, 3e-3])
    sp = exp.add_parser("lawa", parents=[shared],
                        help="rolling weight averages vs matched-step cooldowns")
    sp.add_argument("--trunk-steps", type=int, default=None)
    sp.add_argument("--compare-steps", type=int, nargs="+", default=None)
    sp.add_argument("--k", type=int, default=5)
    return p


def _cmd_quantize(args) -> int:
    """Quantize one checkpoint under its run's config (the manifest next to
    it, or --config), then --set."""
    from .model import load_checkpoint
    from .quant import quantize_model, save_quantized

    ckpt = load_checkpoint(args.ckpt)
    manifest = os.path.join(os.path.dirname(os.path.abspath(args.ckpt)), cfgmod.MANIFEST)
    run_cfg = cfgmod.resolve(args.config or (manifest if os.path.isfile(manifest) else ""))
    cfg = cfgmod.apply_overrides(dict(run_cfg), args.set)
    qcfg = cfgmod.quant_config(cfg, args.bits, args.method)
    calib = None
    if qcfg.method == "gptq":
        data = harness.build_data(cfg)
        # the run's own calibration set must still be the recorded one;
        # --set may then choose another (say, fewer samples) from it
        harness.check_calibration(data, run_cfg, args.ckpt)
        calib = data.calibration(cfg)
    qm, stats = quantize_model(ckpt, calib, qcfg)
    save_quantized(args.out, qm, overwrite=True)
    for s in stats:
        rec = "" if s.recon_error is None else f" recon {s.recon_error:.4g}"
        log.info("%s: weight err %.4g%s", s.name, s.weight_error, rec)
    print(args.out)
    return 0


def _cmd_experiment(args) -> int:
    """Run one protocol driver; prints one line per result and a tally."""
    out_root = args.out_root or os.path.join("runs", args.experiment.replace("-", "_"))
    bits = args.bits or (4 if args.experiment == "lr-sweep" else 3)
    shared = dict(profile=args.profile, seeds=args.seeds, bits=bits)
    if args.experiment == "cooldown":
        results = experiments.cooldown_branching(
            args.corpus, out_root, trunk_steps=args.trunk_steps,
            branch_steps=args.branch_steps, **shared,
        )
        for r in results:
            print(
                f"seed {r.seed} branch {r.branch_step}: "
                f"val_ce {r.trunk_ce:.4f} -> {r.branch_ce:.4f} "
                f"({'improves' if r.loss_improves else 'worsens'}), "
                f"rel_err{bits} {r.trunk_rel_err:.4f} -> {r.branch_rel_err:.4f} "
                f"({'rises' if r.quant_error_rises else 'falls'})"
            )
        both = sum(r.loss_improves and r.quant_error_rises for r in results)
        print(f"{both}/{len(results)} branches show loss improving while quantization error rises")
    elif args.experiment == "lr-sweep":
        result = experiments.lr_sweep(
            args.corpus, out_root, total_steps=args.total_steps, lrs=args.lrs, **shared
        )
        lrs = sorted(args.lrs)
        inverse = 0
        for seed, per_lr in result.items():
            errs = [per_lr[lr] for lr in lrs]
            ordered = all(errs[i] >= errs[i + 1] for i in range(len(errs) - 1))
            inverse += ordered
            pretty = ", ".join(f"{lr:.0e}: {e:.4f}" for lr, e in zip(lrs, errs))
            print(f"seed {seed}: rel_err{bits} by lr {{{pretty}}} inverse-ordered={ordered}")
        print(f"{inverse}/{len(result)} seeds inversely ordered by learning rate")
    else:
        results = experiments.lawa_vs_cooldown(
            args.corpus, out_root, trunk_steps=args.trunk_steps,
            compare_steps=args.compare_steps, k=args.k, **shared,
        )
        for r in results:
            print(
                f"seed {r.seed} step {r.step}: lawa ce_q{bits} {r.lawa_ce_q:.4f} vs "
                f"cooldown {r.branch_ce_q:.4f} "
                f"({'lawa matches/beats' if r.lawa_matches_or_beats else 'cooldown wins'})"
            )
        wins = sum(r.lawa_matches_or_beats for r in results)
        print(f"{wins}/{len(results)} comparisons favor weight averaging")
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
    if args.cmd == "experiment":
        return _cmd_experiment(args)
    raise ConfigError(f"unknown command {args.cmd}")


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        # BLAS threads outside sharded regions: QLAB_THREADS, at most one per core
        with parallel.blas_threads(min(parallel.qlab_threads(), os.cpu_count() or 1)):
            return _dispatch(args)
    except QlabError as exc:
        log.error("%s", exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
