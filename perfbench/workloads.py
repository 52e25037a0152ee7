"""The three benchmark workloads, each one round in the calling process.

A round drives the program only through its public API: it loads the
benchmark's own scenario YAML, builds one probe fabric, runs the
workload's points, checks every output and returns plain data (marks on
the monotonic clock, exact counts, digests, check results).  Every call
into the program sits inside a :meth:`Clock.span`, which times it on the
benchmark's clock and, in a traced round, is the only place the profiler
is switched on.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import shutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import yaml

import checks

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"

#: The program's packages, each one layer of the per-layer split.
PACKAGES = (
    "sim", "net", "switch", "core", "overlay", "lb", "transport",
    "topology", "apps", "faults", "obs", "runner", "scenarios", "analysis",
)
#: Count metrics every workload reports (0 where a layer does no work).
COUNTS = (
    "sim.events",
    "sim.timer_rearms",
    "net.packets",
    "net.drops",
    "transport.retransmissions",
    "transport.timeouts",
    "core.flowlet_decisions",
    "overlay.feedback_sent",
    "lb.caft.fault_reroutes",
    "obs.timeline_samples",
)


class Clock:
    """Times calls into the program, per layer, on the monotonic clock."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = defaultdict(list)
        self.marks: dict[str, float] = {}
        #: Set by a traced round; switched on only inside a span.
        self.profiler: cProfile.Profile | None = None

    @contextmanager
    def span(self, name: str):
        if self.profiler is not None:
            self.profiler.enable()
        start = time.monotonic()
        try:
            yield
        finally:
            self.spans[name].append(time.monotonic() - start)
            if self.profiler is not None:
                self.profiler.disable()

    def mark(self, name: str) -> None:
        self.marks[name] = time.monotonic()


def derive_seed(*parts: object) -> int:
    """A positive 31-bit seed from the benchmark seed and a point's place."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


def read_yaml(name: str) -> dict:
    """The benchmark's own reading of a scenario file."""
    with (SCENARIOS / name).open() as handle:
        return yaml.safe_load(handle)


class Round:
    """What one round observed; ``to_dict`` is what crosses to the parent."""

    def __init__(self) -> None:
        #: ``counts.update({...})`` adds to the counts.
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self.extra: dict[str, float] = {}
        self.ops = {"points": 0, "flows": 0, "requests": 0}
        self.failed = {"points": 0, "flows": 0, "requests": 0}
        self.known_faults: list[str] = []
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.simulated_events = 0

    def to_dict(self, clock: Clock) -> dict:
        return {
            "marks": clock.marks,
            "spans": dict(clock.spans),
            "counts": self.counts,
            "extra": self.extra,
            "ops": self.ops,
            "failed": self.failed,
            "known_faults": self.known_faults,
            "errors": self.errors,
            "digests": self.digests,
            "simulated_events": self.simulated_events,
        }


def _record_tuples(records) -> list[tuple[int, int, int, int, int, int]]:
    return [
        (r.flow_id, r.src, r.dst, r.size, r.start_time, r.fct) for r in records
    ]


def _two_tier_ports(fabric) -> list:
    """Every port of a 2-tier fabric: host NICs, leaf and spine ports."""
    ports = [host.nic for _, host in sorted(fabric.hosts.items())]
    for switch in [*fabric.leaves, *fabric.spines]:
        ports.extend(switch.ports)
    return ports


def _probe_fabric(clock: Clock, template) -> None:
    """Build and finalize one fabric of the scenario's topology."""
    from repro.apps import get_scheme
    from repro.sim import Simulator
    from repro.topology import MultiPodConfig, build_leaf_spine, build_multipod

    with clock.span("topology.build"):
        sim = Simulator(seed=template.seed)
        build = (
            build_multipod
            if isinstance(template.config, MultiPodConfig)
            else build_leaf_spine
        )
        fabric = build(sim, template.config)
        fabric.finalize(get_scheme(template.scheme).make_selector())


def _recorded(inner, made: list):
    """A flow factory that appends every flow ``inner`` makes to ``made``."""

    def factory(src, dst, size, done):
        flow = inner(src, dst, size, done)
        made.append(flow)
        return flow

    return factory


def _report_value(report, name: str) -> int:
    return int(report.value(name)) if name in report.names() else 0


# -- fct-conga-enterprise ------------------------------------------------------


def fct_conga_enterprise(clock: Clock, seed: int, index: int, workdir: Path, traced: bool) -> Round:
    """Seeded CONGA points, one after another, in this process.

    Each round first repeats the run's anchor, a smaller point of the same
    workload whose seed depends only on ``--seed``; the parent checks that
    its records never change.  The other points get fresh seeds
    every round, so a run's median round covers many draws of the
    heavy-tailed flow sizes.
    """
    from repro.apps import PointResult, get_scheme, register_scheme
    from repro.scenarios import load_scenario
    from repro.units import seconds

    name = "fct_conga_enterprise.yaml"
    raw = read_yaml(name)
    params = raw["params"]
    seeds = [derive_seed("fct", seed, index, k) for k in range(params["points_per_round"])]
    host_rate = checks.parse_rate_bps(raw["template"]["topology"]["host_rate_bps"])
    flows = [params["anchor_flows"]] + [raw["template"]["num_flows"]] * len(seeds)
    out = Round()

    with clock.span("scenarios.load"):
        scenario = load_scenario(SCENARIOS / name)
        anchor = scenario.template.with_(
            seed=derive_seed("fct", seed, "anchor"), num_flows=params["anchor_flows"]
        )
        specs = [anchor] + dataclasses.replace(scenario, seeds=tuple(seeds)).compile()
    _probe_fabric(clock, scenario.template)
    clock.mark("setup_end")
    # The same scheme, re-registered so the benchmark sees every flow it
    # makes and can read each receiver's payload count.
    made: list = []
    base = get_scheme(scenario.template.scheme)
    register_scheme(
        dataclasses.replace(
            base, make_flow_factory=lambda tcp: _recorded(base.make_flow_factory(tcp), made)
        ),
        replace=True,
    )
    observed = []
    for spec in specs:
        with clock.span("apps.point"):
            started = time.monotonic()
            live = spec.run_live()
            result = PointResult.from_live(
                spec, live, wall_seconds=time.monotonic() - started
            )
        ports = _two_tier_ports(live.fabric)
        observed.append(
            (
                spec.seed,
                result,
                sum(p.tx_packets for p in ports),
                sum(p.queue.stats.dropped_packets for p in ports),
                [(flow.size, flow.receiver.rcv_nxt) for flow in made if flow.finished],
            )
        )
        made.clear()
        del live
    clock.mark("sim_end")

    for k, (point_seed, result, packets, drops, delivered) in enumerate(observed):
        label = f"fct point {k} (seed {point_seed})"
        records = _record_tuples(result.records)
        out.ops["points"] += 1
        out.ops["flows"] += flows[k]
        out.failed["flows"] += flows[k] - result.completed
        out.errors += checks.check_flows(
            label,
            records,
            arrivals=result.arrivals,
            completed=result.completed,
            num_flows=flows[k],
            host_rate_bps=host_rate,
            ticks_per_second=seconds(1),
        )
        out.errors += checks.check_payload_delivered(label, records, delivered)
        out.digests[f"{flows[k]} flows, seed {point_seed}"] = checks.records_digest(records)
        report = result.metrics
        out.simulated_events += result.events_executed
        out.counts.update({
            "sim.events": result.events_executed,
            "sim.timer_rearms": _report_value(report, "kernel.timer_rearms"),
            "net.packets": packets,
            "net.drops": drops,
            "transport.retransmissions": result.retransmissions,
            "transport.timeouts": result.timeouts,
            "core.flowlet_decisions": _report_value(report, "flowlet.decisions"),
            "overlay.feedback_sent": _report_value(report, "feedback.sent"),
        })
    clock.mark("done")
    return out


# -- incast-rto ------------------------------------------------------------------


def incast_rto(clock: Clock, seed: int, index: int, workdir: Path, traced: bool) -> Round:
    """Synchronized striped requests from every other host to one client."""
    from repro.apps import IncastClient, get_scheme
    from repro.scenarios import load_scenario
    from repro.sim import Simulator
    from repro.topology import build_leaf_spine
    from repro.units import seconds

    name = "incast_rto.yaml"
    raw = read_yaml(name)
    params = raw["params"]
    client_rate = checks.parse_rate_bps(raw["template"]["topology"]["host_rate_bps"])
    deadline = checks.parse_time_ns(params["deadline"])
    out = Round()

    with clock.span("scenarios.load"):
        scenario = load_scenario(SCENARIOS / name)
    template = scenario.template
    _probe_fabric(clock, template)
    clock.mark("setup_end")
    fan_in, repeats = params["fan_in"], params["repeats"]
    observed = []
    for k in range(params["points_per_round"]):
        point_seed = derive_seed("incast", seed, index, k)
        flows: list = []
        with clock.span("apps.point"):
            scheme = get_scheme(template.scheme)
            sim = Simulator(seed=point_seed)
            fabric = build_leaf_spine(sim, template.config)
            fabric.finalize(scheme.make_selector())
            servers = [h for h in sorted(fabric.hosts) if h != params["client"]]
            client = IncastClient(
                sim,
                fabric,
                client=params["client"],
                servers=servers[:fan_in],
                flow_factory=_recorded(scheme.make_flow_factory(template.tcp_params), flows),
                request_bytes=params["request_bytes"],
                repeats=repeats,
            )
            client.start()
            sim.run(until=deadline)
        # Keep plain values only, so no point's fabric outlives it.
        ports = _two_tier_ports(fabric)
        observed.append(
            (
                point_seed,
                list(client.result.request_durations),
                [
                    [flow.size for flow in flows[i : i + fan_in]]
                    for i in range(0, len(flows), fan_in)
                ],
                len(flows),
                sum(flow.finished for flow in flows),
                {
                    "sim.events": sim.events_executed,
                    "sim.timer_rearms": sim.timer_rearms,
                    "net.packets": sum(p.tx_packets for p in ports),
                    "net.drops": sum(p.queue.stats.dropped_packets for p in ports),
                    "transport.retransmissions": sum(
                        f.sender.stats.retransmissions for f in flows
                    ),
                    "transport.timeouts": sum(f.sender.stats.timeouts for f in flows),
                    "core.flowlet_decisions": sum(
                        getattr(leaf.selector, "decisions", 0) for leaf in fabric.leaves
                    ),
                    "overlay.feedback_sent": sum(
                        leaf.tep.feedback_sent for leaf in fabric.leaves
                    ),
                },
            )
        )
        del sim, fabric, client, flows, ports
    clock.mark("sim_end")

    for point_seed, durations, stripes, made, finished, counts in observed:
        label = f"incast (seed {point_seed})"
        out.ops["points"] += 1
        out.ops["flows"] += fan_in * repeats
        out.ops["requests"] += repeats
        out.failed["flows"] += fan_in * repeats - finished
        out.errors += checks.check_incast(
            label,
            durations,
            repeats=repeats,
            request_bytes=params["request_bytes"],
            client_rate_bps=client_rate,
            ticks_per_second=seconds(1),
        )
        if finished != made or made != fan_in * repeats:
            out.errors.append(f"{label}: {finished} of {fan_in * repeats} stripes finished")
        short, errors = checks.check_stripes(
            label, stripes, request_bytes=params["request_bytes"], fan_in=fan_in
        )
        out.errors += errors
        out.failed["requests"] += max(len(short), repeats - len(durations))
        if short:
            out.known_faults.append(
                f"incast: the stripes of {len(short)} of {repeats} requests sum to "
                f"{sum(stripes[short[0]])} B, not the {params['request_bytes']} B "
                f"requested (IncastClient drops the remainder of "
                f"request_bytes // fan_in)"
            )
        out.digests[f"incast{point_seed}"] = checks.records_digest(
            [(i, d) for i, d in enumerate(durations)]
        )
        out.simulated_events += counts["sim.events"]
        out.counts.update(counts)
    clock.mark("done")
    return out


# -- recovery-report -----------------------------------------------------------


def recovery_report(clock: Clock, seed: int, index: int, workdir: Path, traced: bool) -> Round:
    """A reduced CAFT recovery matrix through the user path: load, cold
    sweeps into an empty cache, render, warm sweeps, render again.

    Untraced rounds sweep with two workers on the default local backend;
    a traced round runs the points inline so the profiler sees them.
    """
    from repro.analysis import recovery_report as render
    from repro.faults import parse_fault
    from repro.runner import PointFailure, run_sweep, sweep_grid
    from repro.scenarios import load_scenario
    from repro.units import seconds

    name = "recovery_report.yaml"
    raw = read_yaml(name)
    cells = raw["params"]["cells"]
    seeds = [
        derive_seed("recovery", seed, index, k)
        for k in range(raw["params"]["seeds_per_round"])
    ]
    host_rate = checks.parse_rate_bps(raw["template"]["topology"]["host_rate_bps"])
    num_flows = raw["template"]["num_flows"]
    workers = 0 if traced else raw["params"]["workers"]
    cache = workdir / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    out = Round()

    with clock.span("scenarios.load"):
        scenario = load_scenario(SCENARIOS / name)
        sweeps = [dataclasses.replace(scenario, seeds=tuple(seeds)).compile()]
        for cell in scenario.params["cells"]:
            faults = tuple(parse_fault(text) for text in cell["faults"])
            sweeps.append(
                sweep_grid(
                    scenario.template.with_(faults=faults),
                    schemes=scenario.schemes,
                    seeds=seeds,
                )
            )
    _probe_fabric(clock, scenario.template)
    clock.mark("setup_end")
    cold = []
    for specs in sweeps:
        with clock.span("runner.sweep"):
            cold.append(run_sweep(specs, workers=workers, cache=cache))
    clock.mark("sim_end")

    def page(results, path: Path) -> str:
        ok = [[p for p in r if not isinstance(p, PointFailure)] for r in results]
        with clock.span("analysis.report"):
            html = render(
                title=f"{scenario.name} - recovery matrix",
                baseline=ok[0],
                cells=list(zip(scenario.params["cells"], ok[1:])),
                subtitle=f"{len(cells)} fault cells",
            )
            path.write_text(html)
        return html

    cold_page = page(cold, workdir / "cold.html")
    cache_bytes = sum(p.stat().st_size for p in cache.iterdir())
    warm = []
    for specs in sweeps:
        with clock.span("runner.warm_sweep"):
            warm.append(run_sweep(specs, workers=workers, cache=cache))
    warm_page = page(warm, workdir / "warm.html")

    cold_digests: dict[str, str] = {}
    warm_digests: dict[str, str] = {}
    from_cache: list[bool] = []
    point_seconds = 0.0
    for s, (cold_sweep, warm_sweep) in enumerate(zip(cold, warm)):
        cell = cells[s - 1] if s else None
        sweep_name = f"{cell['tier']}-{cell['kind']}" if cell else "baseline"
        for point in cold_sweep:
            out.ops["points"] += 1
            out.ops["flows"] += num_flows
            if isinstance(point, PointFailure):
                out.failed["points"] += 1
                out.failed["flows"] += num_flows
                out.errors.append(f"{sweep_name}: point failed: {point.kind}")
                continue
            key = f"{sweep_name}/{point.scheme}/{point.spec.seed}"
            records = _record_tuples(point.records)
            cold_digests[key] = checks.records_digest(records)
            point_seconds += point.wall_seconds
            out.failed["flows"] += num_flows - point.completed
            out.errors += checks.check_flows(
                key,
                records,
                arrivals=point.arrivals,
                completed=point.completed,
                num_flows=num_flows,
                host_rate_bps=host_rate,
                ticks_per_second=seconds(1),
            )
            faults = cell["faults"] if cell else []
            if point.timeline is None:
                out.errors.append(f"{key}: point has no timeline")
            else:
                out.errors += checks.check_fault_log(
                    key, list(point.timeline.fault_events), faults, point.end_time
                )
            if faults:
                out.errors += checks.check_restores_inside(key, faults, point.end_time)
            report = point.metrics
            out.simulated_events += point.events_executed
            out.counts.update({
                "sim.events": point.events_executed,
                "sim.timer_rearms": _report_value(report, "kernel.timer_rearms"),
                "net.packets": _report_value(report, "port.tx_packets"),
                "net.drops": _report_value(report, "port.queue_dropped_packets"),
                "transport.retransmissions": point.retransmissions,
                "transport.timeouts": point.timeouts,
                "core.flowlet_decisions": _report_value(report, "flowlet.decisions"),
                "overlay.feedback_sent": _report_value(report, "feedback.sent"),
                "lb.caft.fault_reroutes": _report_value(report, "lb.caft.fault_reroutes"),
                "obs.timeline_samples": point.timeline.samples if point.timeline else 0,
            })
        for point in warm_sweep:
            out.ops["points"] += 1
            if isinstance(point, PointFailure):
                out.failed["points"] += 1
                out.errors.append(f"{sweep_name}: warm point failed: {point.kind}")
                continue
            key = f"{sweep_name}/{point.scheme}/{point.spec.seed}"
            warm_digests[key] = checks.records_digest(_record_tuples(point.records))
            from_cache.append(point.from_cache)
    out.errors += checks.check_warm_pass("recovery", cold_digests, warm_digests, from_cache)
    out.errors += checks.check_pages(cold_page, warm_page, cells)
    out.digests.update(cold_digests)

    executed = sum(r.executed for r in cold)
    cold_sweep_s = sum(clock.spans["runner.sweep"])
    out.extra = {
        "runner.parallel_efficiency": point_seconds / (max(workers, 1) * cold_sweep_s),
        "runner.cache_kb_per_point": cache_bytes / 1024 / max(executed, 1),
        "analysis.report_kb": len(cold_page.encode()) / 1024,
    }
    clock.mark("done")
    return out


WORKLOADS = {
    "fct-conga-enterprise": fct_conga_enterprise,
    "incast-rto": incast_rto,
    "recovery-report": recovery_report,
}
