"""Command-line interface.

    python -m repro run --scheme nomad --workload cact
    python -m repro run --scheme nomad --workload cact --guard
    python -m repro run --scheme nomad --workload cact --timeline t.json
    python -m repro timeline t.json
    python -m repro compare --workload cact --ops 6000
    python -m repro sweep --schemes tdc,nomad --pcshrs 8,32 --jobs 4
    python -m repro replay ~/.cache/repro-nomad/bundles/bundle-.../
    python -m repro table1
    python -m repro list

Everything prints plain-text tables (or ``--json`` structured output);
grids go through the :mod:`repro.campaign` layer, which fans out over
worker processes and serves repeats from the persistent result store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign import (
    GridSpec,
    ResultStore,
    default_store_dir,
    run_campaign,
    speedup_matrix,
)
from repro.config.schemes import BackendTopology, NomadConfig
from repro.harness.experiments import experiment_table1
from repro.harness.reporting import format_table
from repro.harness.runner import RunConfig, run_workload
from repro.system.builder import SCHEME_REGISTRY
from repro.vm.descriptors import MAX_CORES
from repro.workloads.presets import CLASS_OF, PRESETS


def _result_row(res) -> dict:
    return {
        "scheme": res.scheme,
        "workload": res.workload,
        "ipc": res.ipc,
        "dc_access_time": res.dc_access_time,
        "os_stall": res.os_stall_ratio,
        "ddr_gbps": res.ddr_bandwidth_gbps,
        "hbm_gbps": res.hbm_bandwidth_gbps,
    }


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _autoconfigure_obs(component: str, args) -> None:
    """Install observability for a CLI entry point.

    An explicit ``--obs-dir`` is also exported as ``REPRO_OBS_DIR`` so
    subprocesses this command spawns (the ephemeral runners of
    ``local_service``) inherit the same sinks.
    """
    from repro import obs

    obs_dir = getattr(args, "obs_dir", None)
    if obs_dir:
        obs_dir = str(Path(obs_dir).absolute())
        os.environ[obs.ENV_DIR] = obs_dir
    obs.autoconfigure(component, obs_dir)


def _reject_unknown(schemes=(), workloads=()) -> Optional[str]:
    """One-line description of any unknown scheme/workload, else None."""
    bad = [f"scheme {s!r}" for s in schemes if s not in SCHEME_REGISTRY]
    bad += [f"workload {w!r}" for w in workloads if w not in PRESETS]
    if not bad:
        return None
    return (f"error: unknown {', '.join(bad)} "
            f"(run `repro list` to see what is available)")


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive(text: str) -> int:
    return _int_at_least(1, text)


def _seed(text: str) -> int:
    return _int_at_least(0, text)


def _int_list(item):
    """An argparse type: a non-empty comma list, each element parsed by
    *item*."""

    def parse(text: str) -> List[int]:
        values = [item(t) for t in _csv(text)]
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of integers, got {text!r}")
        return values

    return parse


def _core_count(text: str) -> int:
    cores = _positive(text)
    if cores > MAX_CORES:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_CORES} cores are supported, got {cores}")
    return cores


def cmd_run(args) -> int:
    problem = _reject_unknown([args.scheme], [args.workload])
    if problem:
        print(problem, file=sys.stderr)
        return 2
    nomad_cfg = None
    if args.pcshrs is not None or args.distributed:
        nomad_cfg = NomadConfig(
            num_pcshrs=16 if args.pcshrs is None else args.pcshrs,
            topology=(BackendTopology.DISTRIBUTED if args.distributed
                      else BackendTopology.CENTRALIZED),
        )
    cfg = RunConfig(
        scheme=args.scheme,
        workload=args.workload,
        num_mem_ops=args.ops,
        num_cores=args.cores,
        dc_megabytes=args.dc_mb,
        seed=args.seed,
        nomad_cfg=nomad_cfg,
    )
    guard = True if getattr(args, "guard", False) else None

    telemetry = None
    if args.timeline or args.metrics_out:
        from repro.telemetry import Telemetry, TelemetryConfig

        telemetry = Telemetry(TelemetryConfig(
            sample_every=args.sample_every,
            timeline_path=args.timeline,
        ))
    from repro.guard.errors import GuardError

    machine = None
    try:
        if args.profile:
            import cProfile
            import pstats

            from repro.harness.runner import clear_cache
            from repro.workloads.synthetic import clear_trace_cache

            # Memoized results/traces would hide the work being profiled.
            clear_cache()
            clear_trace_cache()
            profiler = cProfile.Profile()
            profiler.enable()
            res = run_workload(cfg, guard=guard, telemetry=telemetry)
            profiler.disable()
            profiler.dump_stats(args.profile)
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(20)
            print(f"profile written to {args.profile} (binary pstats)")
        elif args.metrics_out:
            # The metrics dump needs the machine back, not just the result.
            from repro.harness.runner import prime, simulate

            res, machine = simulate(cfg, guard=guard, telemetry=telemetry)
            if guard is None:
                prime(cfg, res)
        else:
            res = run_workload(cfg, guard=guard, telemetry=telemetry)
    except GuardError as exc:
        print(f"guard failure: {exc}", file=sys.stderr)
        bundle = getattr(exc, "bundle_path", None)
        if bundle:
            print(f"diagnostic bundle: {bundle}", file=sys.stderr)
            print(f"reproduce with: python -m repro replay {bundle}",
                  file=sys.stderr)
        return 1
    if args.metrics_out and machine is not None:
        from pathlib import Path

        metrics_path = Path(args.metrics_out)
        if metrics_path.parent != Path(""):
            metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(machine.metrics(), indent=1, sort_keys=True)
        )
    if args.json:
        payload = {"config": cfg.to_dict(), "result": res.to_dict()}
        if telemetry is not None and telemetry.summary is not None:
            payload["telemetry"] = telemetry.summary
        _emit_json(payload)
        return 0
    print(format_table([_result_row(res)], title="run result"))
    if res.tag_mgmt_latency is not None:
        print(f"\ntag management latency: {res.tag_mgmt_latency:.0f} cycles")
    if res.buffer_hit_ratio is not None:
        print(f"page-copy-buffer hit ratio: {res.buffer_hit_ratio:.1%}")
    if args.timeline:
        print(f"timeline written to {args.timeline} "
              f"(summarize with: python -m repro timeline {args.timeline})")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


COMPARE_SCHEMES = ("baseline", "tid", "tdc", "nomad", "ideal")


def cmd_compare(args) -> int:
    problem = _reject_unknown(workloads=[args.workload])
    if problem:
        print(problem, file=sys.stderr)
        return 2
    base = RunConfig(
        scheme="baseline", workload=args.workload, num_mem_ops=args.ops,
        num_cores=args.cores, dc_megabytes=args.dc_mb, seed=args.seed,
    )
    matrix = speedup_matrix(COMPARE_SCHEMES, [args.workload], base)
    rows = []
    for scheme in COMPARE_SCHEMES:
        res, rel = matrix[(scheme, args.workload)]
        row = _result_row(res)
        row["ipc_rel"] = rel
        rows.append(row)
    if args.json:
        _emit_json({"config": base.to_dict(), "rows": rows})
        return 0
    print(format_table(
        rows,
        columns=["scheme", "ipc", "ipc_rel", "dc_access_time", "os_stall",
                 "ddr_gbps", "hbm_gbps"],
        title=f"schemes on {args.workload!r} ({CLASS_OF[args.workload]} class)",
    ))
    return 0


def _csv(text: str) -> List[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def cmd_sweep(args) -> int:
    schemes = _csv(args.schemes)
    workloads = _csv(args.workloads) if args.workloads else sorted(PRESETS)
    problem = _reject_unknown(schemes, workloads)
    if problem:
        print(problem, file=sys.stderr)
        return 2

    axes = []
    if args.pcshrs:
        axes.append(("num_pcshrs", args.pcshrs))
    if args.seeds:
        axes.append(("seed", args.seeds))
    base = RunConfig(
        scheme=schemes[0], workload=workloads[0], num_mem_ops=args.ops,
        num_cores=args.cores, dc_megabytes=args.dc_mb, seed=args.seed,
    )
    grid = GridSpec(schemes=schemes, workloads=workloads, base=base, axes=axes)

    store = None
    if not args.no_store:
        store = ResultStore(args.store or default_store_dir())

    if args.distributed or args.resume:
        if store is None:
            print("error: --distributed needs the result store "
                  "(drop --no-store); the store is the shared state "
                  "between broker, runners, and --resume",
                  file=sys.stderr)
            return 2
        _autoconfigure_obs("coordinator", args)
        from repro.service import (
            BrokerError,
            BrokerUnreachable,
            local_service,
            run_distributed_campaign,
        )

        kwargs = dict(
            store=store,
            campaign_id=args.resume or args.campaign_id,
            resume=bool(args.resume),
            timeout=args.timeout, retries=args.retries,
            guard=True if args.guard else None,
            telemetry=True if args.telemetry else None,
            progress=None if args.no_progress else True,
        )
        grid_arg = None if args.resume else grid
        try:
            if args.broker:
                campaign = run_distributed_campaign(
                    grid_arg, args.broker, jobs=args.jobs, **kwargs
                )
            else:
                with local_service(
                    store.root, runners=args.runners,
                    jobs_per_runner=args.jobs,
                ) as url:
                    campaign = run_distributed_campaign(
                        grid_arg, url,
                        jobs=max(1, args.runners * args.jobs), **kwargs
                    )
        except (BrokerError, BrokerUnreachable) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        campaign = run_campaign(
            grid, jobs=args.jobs, store=store,
            timeout=args.timeout, retries=args.retries,
            guard=True if args.guard else None,
            telemetry=True if args.telemetry else None,
            progress=None if args.no_progress else True,
        )

    campaign_id = getattr(campaign, "campaign_id", None)
    if args.json:
        payload = campaign.to_dict()
        if campaign_id:
            payload["campaign_id"] = campaign_id
        _emit_json(payload)
        return 0 if campaign.ok else 1

    rows = []
    for rec in campaign.records:
        row = {
            "scheme": rec.config.scheme,
            "workload": rec.config.workload,
            "seed": rec.config.seed,
            "status": rec.status,
            "source": rec.source or "-",
        }
        if rec.config.nomad_cfg is not None:
            row["pcshrs"] = rec.config.nomad_cfg.num_pcshrs
        if rec.result is not None:
            row["ipc"] = rec.result.ipc
            row["dc_access_time"] = rec.result.dc_access_time
        else:
            row["error"] = rec.error
            if rec.failure_kind:
                row["kind"] = rec.failure_kind
        if rec.telemetry is not None:
            frac = rec.telemetry.get("overlap_fraction")
            if frac is not None:
                row["overlap"] = frac
        rows.append(row)
    columns = ["scheme", "workload", "seed"]
    if any("pcshrs" in r for r in rows):
        columns.append("pcshrs")
    columns += ["status", "source", "ipc", "dc_access_time"]
    if any("overlap" in r for r in rows):
        columns.append("overlap")
    if any(r.get("kind") for r in rows):
        columns.append("kind")
    if any(r.get("error") for r in rows):
        columns.append("error")
    print(format_table(rows, columns=columns,
                       title=f"sweep: {len(rows)} runs, --jobs {args.jobs}"))
    print()
    print(campaign.summary.describe())
    if campaign_id:
        print(f"campaign id: {campaign_id} "
              f"(resume with: repro sweep --distributed "
              f"--resume {campaign_id})")
    return 0 if campaign.ok else 1


def cmd_broker(args) -> int:
    from repro.service import serve_broker

    _autoconfigure_obs("broker", args)
    serve_broker(args.host, args.port, args.store or default_store_dir(),
                 lease_s=args.lease, token=args.token)
    return 0


def cmd_runner(args) -> int:
    from repro.service import BrokerUnreachable, runner_loop

    _autoconfigure_obs("runner", args)
    try:
        done = runner_loop(
            args.broker, jobs=args.jobs, runner_id=args.runner_id,
            poll_s=args.poll, exit_when_idle=args.exit_when_idle,
            max_batches=args.max_batches, verbose=args.verbose,
            give_up_after_s=args.give_up,
        )
    except BrokerUnreachable as exc:
        # One operator-readable line, no traceback: the address is in
        # the message ("broker unreachable at HOST:PORT ...").
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        print(f"runner finished: {done} batches")
    return 0


def cmd_results(args) -> int:
    from repro.service.index import ResultIndex, parse_duration, parse_where

    store = ResultStore(args.store or default_store_dir())
    index = ResultIndex(store.root)
    synced = index.sync_from_store(store)
    try:
        where = parse_where(args.where or [])
        since = parse_duration(args.since) if args.since else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    statuses: List[str] = []
    if args.quarantined:
        statuses.append("quarantined")
    if args.failed:
        statuses += ["failed", "timeout"]
    status = statuses or None

    if args.count:
        n = index.count(where, status=status, since=since)
        if args.json:
            _emit_json({"count": n})
        else:
            print(n)
        return 0

    rows = index.query(where, status=status, limit=args.limit, since=since)
    if args.json:
        from repro.service.scrub import load_scrub_report

        # Operators auditing a repair see exactly what changed: rows
        # this invocation's sync re-added, cumulative repair counters,
        # and the persisted report of the last `repro scrub`.
        repairs = dict(index.repair_counts)
        repairs["synced_now"] = synced
        _emit_json({
            "count": len(rows),
            "rows": rows,
            "repairs": repairs,
            "last_scrub": load_scrub_report(store.root),
        })
        return 0
    if not rows:
        print("no matching rows (is the store populated? try "
              "`repro sweep` first, or check --store)")
        return 0
    table = []
    for row in rows:
        entry = {
            "key": row["key"][:12],
            "scheme": row["scheme"],
            "workload": row["workload"],
            "seed": row["seed"],
            "status": row["status"],
        }
        if row.get("ipc") is not None:
            entry["ipc"] = row["ipc"]
            entry["dc_access_time"] = row["dc_access_time"]
        if row.get("failure_kind"):
            entry["kind"] = row["failure_kind"]
        table.append(entry)
    columns = ["key", "scheme", "workload", "seed", "status"]
    if any("ipc" in r for r in table):
        columns += ["ipc", "dc_access_time"]
    if any("kind" in r for r in table):
        columns.append("kind")
    print(format_table(table, columns=columns,
                       title=f"result index: {len(rows)} rows "
                             f"({store.root})"))
    return 0


def cmd_scrub(args) -> int:
    from repro.service.index import ResultIndex
    from repro.service.scrub import scrub_store

    store = ResultStore(args.store or default_store_dir())
    index = ResultIndex(store.root)
    report = scrub_store(store, index, repair=not args.audit)
    if args.json:
        _emit_json(report)
    else:
        print(f"scrub {store.root}: {report['checked']} records checked, "
              f"{report['ok']} ok, "
              f"{len(report['corrupt']) + len(report['quarantined_corrupt'])}"
              f" corrupt, {report['synced_rows']} index rows repaired")
        for entry in report["corrupt"] + report["quarantined_corrupt"]:
            moved = entry.get("moved_to")
            action = f" -> {moved}" if moved else " (audit only)"
            print(f"  corrupt: {entry['path']}: {entry['reason']}{action}")
    return 0 if report["clean"] else 1


def cmd_chaos(args) -> int:
    """Seeded chaos convergence check (the CI service-smoke entry point).

    Runs the grid serially into a reference store, then through the
    faulted broker/runner harness -- network faults plus a broker
    kill+restart and a runner kill -- and requires the two stores to be
    byte-identical and a final scrub to come back clean.
    """
    import shutil as _shutil
    import tempfile as _tempfile

    from repro.campaign.executor import run_campaign as _run_campaign
    from repro.harness.runner import clear_cache
    from repro.service.chaos import (
        KILL_BROKER,
        KILL_RUNNER,
        NETWORK_KINDS,
        FaultPlan,
        FaultSpec,
        run_chaos_campaign,
        stores_identical,
    )
    from repro.service.index import ResultIndex
    from repro.service.scrub import scrub_store

    schemes = _csv(args.schemes)
    workloads = _csv(args.workloads)
    problem = _reject_unknown(schemes, workloads)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    _autoconfigure_obs("chaos", args)
    base = RunConfig(
        scheme=schemes[0], workload=workloads[0], num_mem_ops=args.ops,
        num_cores=args.cores, dc_megabytes=args.dc_mb,
    )
    grid = GridSpec(schemes=schemes, workloads=workloads, base=base,
                    axes=[("seed", args.seeds)])
    configs = grid.expand()

    workdir = args.store or _tempfile.mkdtemp(prefix="repro-chaos-")
    chaos_root = Path(workdir) / "chaos-store"
    serial_root = Path(workdir) / "serial-store"
    for root in (chaos_root, serial_root):
        if root.exists():
            _shutil.rmtree(root)

    if not args.json:
        print(f"chaos: {len(configs)} configs, seed {args.seed}, "
              f"stores under {workdir}")
    serial = _run_campaign(configs, jobs=1, store=ResultStore(serial_root),
                           progress=None)
    if not serial.ok:
        print("error: serial reference campaign failed", file=sys.stderr)
        return 1
    # The serial reference populated the in-process memo; drop it so
    # the chaos campaign's prescan cannot resolve the grid locally --
    # the faulted broker/runner path must actually run and ingest.
    clear_cache()

    kinds = list(NETWORK_KINDS) + [KILL_RUNNER, KILL_BROKER]
    plan = FaultPlan.seeded(args.seed, kinds=kinds)
    plan.specs.append(FaultSpec(kind=KILL_BROKER, path="broker",
                                at=max(1, args.kill_broker_at)))
    result, report = run_chaos_campaign(
        configs, chaos_root, plan=plan, runners=args.runners,
        lease_s=args.lease, max_wait_s=args.max_wait,
    )

    identical, diffs = stores_identical(chaos_root, serial_root)
    store = ResultStore(chaos_root)
    scrub = scrub_store(store, ResultIndex(store.root))
    ok = (identical and scrub["clean"]
          and len(result.records) == len(configs))
    if args.json:
        _emit_json({
            "ok": ok,
            "configs": len(configs),
            "records": len(result.records),
            "identical": identical,
            "differences": diffs,
            "scrub_clean": scrub["clean"],
            "report": report,
        })
        return 0 if ok else 1
    fired = ", ".join(f[0] for f in report["plan"]["fired"]) or "none"
    print(f"chaos: faults fired: {fired}")
    print(f"chaos: broker restarts {report['broker_restarts']}, "
          f"runner kills {report['runner_kills']}, "
          f"requeues {report['requeues']}, "
          f"duplicate completes {report['duplicate_completes']}")
    if not identical:
        for diff in diffs:
            print(f"  store divergence: {diff}", file=sys.stderr)
    print(f"chaos: {len(result.records)}/{len(configs)} records, "
          f"store byte-identical to serial: {identical}, "
          f"scrub clean: {scrub['clean']}")
    return 0 if ok else 1


def cmd_table1(args) -> int:
    base = RunConfig(scheme="unthrottled", workload="cact",
                     num_mem_ops=args.ops, num_cores=args.cores,
                     dc_megabytes=args.dc_mb)
    rows = experiment_table1(base)
    if args.json:
        _emit_json({"config": base.to_dict(), "rows": rows})
        return 0
    print(format_table(rows, title="Table I (measured)"))
    return 0


def cmd_bench(args) -> int:
    from repro.harness import bench

    version = bench.python_version()
    report = bench.load_report()
    committed = report.get("counts", {}).get(version)
    if committed is None and not args.update:
        print(f"error: {bench.REPORT} has no opcode counts for Python "
              f"{version}; record them with `repro bench --update`",
              file=sys.stderr)
        return 2
    measured = bench.measure()
    if args.update:
        bench.write_counts(report, measured)
    # Against its own counts an update can fail only the obs budget.
    problems = bench.check(measured if args.update else committed, measured)
    if args.json:
        _emit_json({"python": version, "measured": measured,
                    "problems": problems})
        return 1 if problems else 0
    print(f"opcode meter (Python {version}): opcodes, per memory op, "
          f"committed per memory op, top packages")
    for name, entry in measured.items():
        was = (committed or {}).get(name, {}).get("per_mem_op", 0.0)
        top = ", ".join(f"{p} {n / entry['opcodes']:.0%}"
                        for p, n in list(entry["packages"].items())[:5])
        print(f"  {name:16}{entry['opcodes']:>12,}"
              f"{entry['per_mem_op']:>10,.1f}{was:>10,.1f}  {top}")
    print(f"sweep: {measured['sweep']['forks']} forks, "
          f"{measured['sweep']['builds']} builds; obs on/off opcode ratio "
          f"{bench.obs_ratio(measured):.4f} "
          f"(limit {1 + bench.OBS_OVERHEAD_FAIL_FRAC:.2f})")
    if args.update:
        print(f"recorded the Python {version} counts in {bench.REPORT}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def cmd_obs(args) -> int:
    from repro.obs import cli as obs_cli

    try:
        if args.obs_command == "tail":
            return obs_cli.cmd_tail(
                args.path, follow=args.follow, level=args.level,
                component=args.component, as_json=args.json,
            )
        if args.obs_command == "scrape":
            return obs_cli.cmd_scrape(args.broker, diff_s=args.diff)
        return obs_cli.cmd_merge(args.obs_dir, out_path=args.out)
    except BrokenPipeError:
        # Downstream closed the pipe (`repro obs tail ... | head`); exit
        # quietly like any well-behaved filter.  Redirect stdout to
        # devnull so interpreter shutdown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_timeline(args) -> int:
    from repro.telemetry.timeline import (
        describe_summary,
        load_trace,
        summarize_trace,
    )
    from repro.telemetry.trace_schema import validate_trace

    try:
        doc = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    problems = validate_trace(doc)
    if problems:
        print(f"error: {args.trace} fails schema validation:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2
    summary = summarize_trace(doc)
    if args.json:
        _emit_json(summary)
    else:
        print(describe_summary(summary))
    return 0


def cmd_replay(args) -> int:
    from repro.guard.bundle import replay_bundle
    from repro.guard.errors import GuardError

    try:
        report = replay_bundle(args.bundle)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(report.describe())
    return 0 if report.reproduced else 1


def cmd_list(_args) -> int:
    rows = [
        {
            "workload": name,
            "class": p.klass,
            "footprint_ratio": p.footprint_ratio,
            "page_select": p.page_select,
            "bursty": p.bursty,
        }
        for name, p in PRESETS.items()
    ]
    print(format_table(rows, title="Table I workload presets"))
    print("\nschemes:", ", ".join(sorted(SCHEME_REGISTRY)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NOMAD (HPCA'23) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--ops", type=_positive, default=6000,
                       help="memory ops per core (default 6000)")
        p.add_argument("--cores", type=_core_count, default=4,
                       help=f"simulated cores, at most {MAX_CORES} (default 4)")
        p.add_argument("--dc-mb", type=_positive, default=64,
                       help="DRAM cache capacity in MB")
        p.add_argument("--seed", type=_seed, default=1)
        p.add_argument("--json", action="store_true",
                       help="structured JSON output instead of tables")

    # Scheme/workload names are validated in the command functions (one
    # clear line + a `repro list` hint, exit 2) rather than via argparse
    # choices= whose error dumps the whole usage string.
    p_run = sub.add_parser("run", help="run one (scheme, workload)")
    p_run.add_argument("--scheme", required=True)
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--pcshrs", type=_positive, default=None)
    p_run.add_argument("--distributed", action="store_true",
                       help="distributed back-ends (NOMAD only)")
    p_run.add_argument("--guard", action="store_true",
                       help="paranoid mode: run invariant checkers + the "
                            "forward-progress watchdog; crashes leave a "
                            "replayable diagnostic bundle")
    p_run.add_argument("--profile", default=None, metavar="PATH",
                       help="cProfile the run; dump binary pstats to PATH "
                            "and print the top 20 by cumulative time")
    p_run.add_argument("--timeline", default=None, metavar="PATH",
                       help="record telemetry and write a Perfetto "
                            "trace-event JSON timeline to PATH")
    p_run.add_argument("--sample-every", type=int, default=5000,
                       metavar="N", help="telemetry sampling period in "
                                         "cycles (default 5000; 0 = off)")
    p_run.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="dump the full flat component-metrics JSON "
                            "(every component counter) to PATH")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="all schemes on one workload")
    p_cmp.add_argument("--workload", required=True)
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sw = sub.add_parser(
        "sweep", help="run a scheme x workload x parameter grid (campaign)"
    )
    p_sw.add_argument("--schemes", default="baseline,tid,tdc,nomad,ideal",
                      help="comma list of schemes")
    p_sw.add_argument("--workloads", default=None,
                      help="comma list of workloads (default: all presets)")
    p_sw.add_argument("--pcshrs", type=_int_list(_positive), default=None,
                      help="comma list -> NOMAD num_pcshrs sweep axis")
    p_sw.add_argument("--seeds", type=_int_list(_seed), default=None,
                      help="comma list -> seed sweep axis")
    p_sw.add_argument("--jobs", type=int, default=1,
                      help="worker processes (default 1 = serial)")
    p_sw.add_argument("--timeout", type=float, default=None,
                      help="stall watchdog seconds (kill hung workers)")
    p_sw.add_argument("--retries", type=int, default=1,
                      help="extra attempts for crashed/hung runs")
    p_sw.add_argument("--store", default=None,
                      help="result-store directory "
                           "(default: $REPRO_STORE or ~/.cache/repro-nomad)")
    p_sw.add_argument("--no-store", action="store_true",
                      help="disable the persistent result store")
    p_sw.add_argument("--guard", action="store_true",
                      help="paranoid mode for every run; deterministic "
                           "failures are quarantined in the store")
    p_sw.add_argument("--telemetry", action="store_true",
                      help="observe every run (campaign categories, no "
                           "dram spans); records carry trace summaries")
    p_sw.add_argument("--no-progress", action="store_true",
                      help="suppress the live progress/heartbeat lines "
                           "on stderr")
    p_sw.add_argument("--distributed", action="store_true",
                      help="run through the broker/runner service instead "
                           "of a local process pool")
    p_sw.add_argument("--broker", default=None, metavar="URL",
                      help="existing broker to submit to (default: spin up "
                           "an ephemeral localhost broker + runners)")
    p_sw.add_argument("--runners", type=int, default=2,
                      help="runner processes for the ephemeral local "
                           "service (default 2; ignored with --broker)")
    p_sw.add_argument("--campaign-id", default=None,
                      help="explicit campaign id (default: generated)")
    p_sw.add_argument("--resume", default=None, metavar="ID",
                      help="re-drive campaign ID from its journaled "
                           "manifest; already-stored and quarantined "
                           "configs are not re-run (implies --distributed)")
    p_sw.add_argument("--obs-dir", default=None, metavar="DIR",
                      help="distributed only: write structured logs and "
                           "service-trace spans under DIR (exported as "
                           "REPRO_OBS_DIR so ephemeral runners inherit it)")
    add_common(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_br = sub.add_parser(
        "broker", help="serve the campaign broker (queue + result ingest)"
    )
    p_br.add_argument("--host", default="127.0.0.1")
    p_br.add_argument("--port", type=int, default=8765)
    p_br.add_argument("--store", default=None,
                      help="result-store directory the broker ingests into "
                           "(default: $REPRO_STORE or ~/.cache/repro-nomad)")
    p_br.add_argument("--lease", type=float, default=60.0,
                      help="batch lease seconds; a runner silent this long "
                           "has its batches requeued (default 60)")
    p_br.add_argument("--token", default=None,
                      help="shared secret required (as X-Repro-Token) on "
                           "every mutating endpoint; default "
                           "$REPRO_BROKER_TOKEN, empty = open (loopback "
                           "only!).  Runners and coordinators pick the "
                           "same variable up automatically")
    p_br.add_argument("--obs-dir", default=None, metavar="DIR",
                      help="structured logs + /metrics + trace spans under "
                           "DIR (default: $REPRO_OBS_DIR; REPRO_OBS=1 for "
                           "stderr logs only)")
    p_br.set_defaults(func=cmd_broker)

    p_rn = sub.add_parser(
        "runner", help="pull-based worker: claim batches from a broker"
    )
    p_rn.add_argument("--broker", required=True,
                      help="broker URL or host:port")
    p_rn.add_argument("--jobs", type=int, default=1,
                      help="worker processes per batch (default 1)")
    p_rn.add_argument("--runner-id", default=None,
                      help="stable id (default: hostname-pid)")
    p_rn.add_argument("--poll", type=float, default=1.0,
                      help="idle poll interval seconds (default 1)")
    p_rn.add_argument("--exit-when-idle", type=float, default=None,
                      metavar="S", help="exit after S seconds with no "
                                        "work (default: poll forever)")
    p_rn.add_argument("--max-batches", type=int, default=None,
                      help="stop after N batches (testing)")
    p_rn.add_argument("--verbose", action="store_true",
                      help="log claims/completions to stdout")
    p_rn.add_argument("--give-up", type=float, default=600.0, metavar="S",
                      help="exit 2 after the broker has been unreachable "
                           "for S continuous seconds (default 600; a "
                           "SIGTERM always drains the in-flight batch "
                           "first and exits 0)")
    p_rn.add_argument("--obs-dir", default=None, metavar="DIR",
                      help="structured logs + trace spans under DIR "
                           "(default: $REPRO_OBS_DIR)")
    p_rn.set_defaults(func=cmd_runner)

    p_res = sub.add_parser(
        "results", help="query the result index (SQLite over the store)"
    )
    p_res.add_argument("--where", action="append", default=[],
                       metavar="COL=VAL",
                       help="filter, repeatable (e.g. --where scheme=nomad "
                            "--where seed=2)")
    p_res.add_argument("--quarantined", action="store_true",
                       help="only quarantined (deterministic-failure) rows")
    p_res.add_argument("--failed", action="store_true",
                       help="only transient failed/timeout rows")
    p_res.add_argument("--since", default=None, metavar="DURATION",
                       help="only rows updated within DURATION "
                            "(e.g. 90s, 15m, 2h, 1d)")
    p_res.add_argument("--count", action="store_true",
                       help="print only the matching row count")
    p_res.add_argument("--limit", type=int, default=None)
    p_res.add_argument("--store", default=None,
                       help="result-store directory "
                            "(default: $REPRO_STORE or ~/.cache/repro-nomad)")
    p_res.add_argument("--json", action="store_true",
                       help="structured JSON output instead of tables")
    p_res.set_defaults(func=cmd_results)

    p_scrub = sub.add_parser(
        "scrub",
        help="verify store records (keys + checksums), repair the index",
    )
    p_scrub.add_argument("store", nargs="?", default=None,
                         help="store directory (default: $REPRO_STORE or "
                              "~/.cache/repro-nomad)")
    p_scrub.add_argument("--audit", action="store_true",
                         help="report damage but move/repair nothing")
    p_scrub.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")
    p_scrub.set_defaults(func=cmd_scrub)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded service fault-injection campaign; proves the store "
             "converges byte-identical to a serial run",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault-schedule seed (default 0)")
    p_chaos.add_argument("--schemes", default="baseline,tdc,nomad")
    p_chaos.add_argument("--workloads", default="sop")
    p_chaos.add_argument("--seeds", type=_int_list(_seed), default="1,2,3,4",
                         help="seed axis of the grid (default 1,2,3,4)")
    p_chaos.add_argument("--ops", type=_positive, default=300)
    p_chaos.add_argument("--cores", type=_core_count, default=2)
    p_chaos.add_argument("--dc-mb", type=_positive, default=8)
    p_chaos.add_argument("--runners", type=int, default=2,
                         help="in-process runner threads (default 2)")
    p_chaos.add_argument("--lease", type=float, default=3.0,
                         help="broker lease seconds; short so killed "
                              "runners requeue fast (default 3)")
    p_chaos.add_argument("--kill-broker-at", type=int, default=2,
                         help="also kill+restart the broker once N "
                              "batches are done (default 2)")
    p_chaos.add_argument("--max-wait", type=float, default=300.0,
                         help="campaign convergence deadline (default 300)")
    p_chaos.add_argument("--store", default=None,
                         help="work directory for the chaos + serial "
                              "stores (default: a fresh temp dir)")
    p_chaos.add_argument("--obs-dir", default=None, metavar="DIR",
                         help="structured logs + trace spans under DIR "
                              "(default: $REPRO_OBS_DIR)")
    p_chaos.add_argument("--json", action="store_true")
    p_chaos.set_defaults(func=cmd_chaos)

    p_t1 = sub.add_parser("table1", help="regenerate Table I")
    add_common(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_bench = sub.add_parser(
        "bench", help="count the opcodes of fixed scenarios and compare "
                      "them with the committed report (cost gate)"
    )
    p_bench.add_argument("--update", action="store_true",
                         help="record this Python version's counts in the "
                              "committed report instead of gating on them")
    p_bench.add_argument("--json", action="store_true",
                         help="structured JSON output instead of a table")
    p_bench.set_defaults(func=cmd_bench)

    p_obs = sub.add_parser(
        "obs", help="observability tools: tail logs, scrape /metrics, "
                    "merge service traces"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_tail = obs_sub.add_parser(
        "tail", help="print structured logs from an obs dir (or one file)"
    )
    p_obs_tail.add_argument("path", help="obs dir, logs dir, or .jsonl file")
    p_obs_tail.add_argument("-f", "--follow", action="store_true",
                            help="keep polling for new records")
    p_obs_tail.add_argument("--level", default="debug",
                            choices=["debug", "info", "warning", "error"],
                            help="minimum level to show (default debug)")
    p_obs_tail.add_argument("--component", default=None,
                            help="only this component (broker, runner, ...)")
    p_obs_tail.add_argument("--json", action="store_true",
                            help="raw JSON records instead of text lines")
    p_obs_tail.set_defaults(func=cmd_obs)
    p_obs_scrape = obs_sub.add_parser(
        "scrape", help="fetch a broker's Prometheus /metrics exposition"
    )
    p_obs_scrape.add_argument("broker", help="broker URL or host:port")
    p_obs_scrape.add_argument("--diff", type=float, default=None, metavar="S",
                              help="scrape twice S seconds apart and print "
                                   "only the series that moved")
    p_obs_scrape.set_defaults(func=cmd_obs)
    p_obs_merge = obs_sub.add_parser(
        "merge", help="merge per-process service traces into one Perfetto "
                      "file (validated against the trace schema)"
    )
    p_obs_merge.add_argument("obs_dir", help="obs dir or its traces/ subdir")
    p_obs_merge.add_argument("--out", default=None, metavar="PATH",
                             help="write the merged trace JSON to PATH "
                                  "(summarize with: repro timeline PATH)")
    p_obs_merge.set_defaults(func=cmd_obs)

    p_tl = sub.add_parser(
        "timeline", help="validate + summarize a telemetry trace file"
    )
    p_tl.add_argument("trace", help="trace JSON written by run --timeline")
    p_tl.add_argument("--json", action="store_true",
                      help="structured JSON summary instead of text")
    p_tl.set_defaults(func=cmd_timeline)

    p_replay = sub.add_parser(
        "replay", help="re-run a guard diagnostic bundle deterministically"
    )
    p_replay.add_argument("bundle", help="bundle directory or bundle.json path")
    p_replay.add_argument("--json", action="store_true",
                          help="structured JSON output instead of text")
    p_replay.set_defaults(func=cmd_replay)

    p_ls = sub.add_parser("list", help="list workloads and schemes")
    p_ls.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
