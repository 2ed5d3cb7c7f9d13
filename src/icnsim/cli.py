"""Command line entry point.

Exit codes: 0 on success, 1 when a run finished but violated a runtime
invariant, 2 for configuration errors (including unknown scenarios,
refused comparisons and artifact directories that cannot be imported).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, telemetry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="icnsim",
        description="Deterministic simulator of an IP-over-ICN edge network "
                    "and its conventional IP baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario in one or both modes")
    run_p.add_argument("--scenario", required=True,
                       help="shipped scenario name or path to a JSON file")
    run_p.add_argument("--mode", choices=("icn", "ip", "both"), default="both")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--out", default=None,
                       help="write artifact directories under this path")
    run_p.add_argument("--no-telemetry", action="store_true",
                       help="disable the metric sample stream")

    cmp_p = sub.add_parser("compare",
                           help="compare two exported artifact directories")
    cmp_p.add_argument("a")
    cmp_p.add_argument("b")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("--scenario", required=True)

    sub.add_parser("list", help="list shipped scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list()
    except harness.ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2


def _cmd_run(args) -> int:
    config = harness.load_scenario(args.scenario)
    modes = ("icn", "ip") if args.mode == "both" else (args.mode,)
    failed = False
    for mode in modes:
        outdir = None
        if args.out:
            outdir = (os.path.join(args.out, mode) if len(modes) > 1
                      else args.out)
        failed |= _run_mode(args, config, mode, outdir)
    return 1 if failed else 0


def _run_mode(args, config: dict, mode: str, outdir: str | None) -> bool:
    """Run, export and report one mode; True when it violated an
    invariant.  Its artifacts go out of scope on return, so one mode's
    log is not held while the next mode runs."""
    artifacts = harness.run_scenario(
        config, mode, seed=args.seed,
        telemetry_enabled=not args.no_telemetry, out=outdir)
    if outdir is None:
        sys.stdout.write(telemetry.render_summary(
            telemetry.summarize(artifacts)))
    else:
        print(f"[{mode}] artifacts written to {outdir}")
        with open(os.path.join(outdir, telemetry.SUMMARY_FILE)) as fh:
            sys.stdout.write(fh.read())
    print(f"[{mode}] events_hash={artifacts.meta['events_hash']}")
    for violation in artifacts.meta["violations"]:
        print(f"[{mode}] invariant violation: {violation}", file=sys.stderr)
    return bool(artifacts.meta["violations"])


def _cmd_compare(args) -> int:
    runs = []
    for outdir in (args.a, args.b):
        try:
            runs.append(telemetry.import_artifacts(outdir))
        except (OSError, ValueError) as exc:
            raise harness.ConfigError(
                f"cannot import {outdir}: {exc}") from None
    sys.stdout.write(harness.render_comparison(
        harness.compare_artifacts(*runs)))
    return 0


def _cmd_validate(args) -> int:
    config = harness.load_scenario(args.scenario)
    effective = harness.validate_config(config)
    print(f"ok: {effective['name']} "
          f"config_hash={harness.config_hash(effective)}")
    return 0


def _cmd_list() -> int:
    for name in harness.list_scenarios():
        print(name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
