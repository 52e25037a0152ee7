"""Each correctness check accepts a good output and rejects a doctored one."""

import json
import shutil
import subprocess
import sys

import checks
import run

TICKS = 10**9
RATE = 10 * 10**9


def flows(records, **overrides):
    kwargs = dict(
        arrivals=len(records),
        completed=len(records),
        num_flows=len(records),
        host_rate_bps=RATE,
        ticks_per_second=TICKS,
    )
    kwargs.update(overrides)
    return checks.check_flows("point", records, **kwargs)


def test_flow_at_line_rate_passes_and_faster_fails():
    # 1 MB at 10 Gbit/s takes at least 800 us.
    assert flows([(0, 1, 9, 1_000_000, 0, 800_000)]) == []
    assert flows([(0, 1, 9, 1_000_000, 0, 799_999)])


def test_missing_flow_fails():
    records = [(0, 1, 9, 1000, 0, 10_000)]
    assert flows(records, num_flows=2)
    assert flows(records, completed=0)


def test_payload_delivered():
    records = [(0, 1, 9, 1000, 0, 10_000), (0, 2, 9, 2000, 0, 10_000)]
    assert checks.check_payload_delivered("p", records, [(2000, 2000), (1000, 1000)]) == []
    assert checks.check_payload_delivered("p", records, [(1000, 1000), (2000, 1999)])
    assert checks.check_payload_delivered("p", records, [(1000, 1000)])
    assert checks.check_payload_delivered("p", records, [(1000, 1000), (2001, 2001)])


def test_repeated_point():
    digest = checks.records_digest([(0, 1, 9, 1000, 0, 10_000)])
    again = checks.records_digest([(0, 1, 9, 1000, 0, 10_001)])
    other = {"seed 2": "x"}
    assert checks.check_repeats([{"seed 1": digest}, {"seed 1": digest, **other}]) == []
    assert checks.check_repeats([{"seed 1": digest}, {"seed 1": again, **other}])


def incast(durations):
    return checks.check_incast(
        "incast",
        durations,
        repeats=3,
        request_bytes=10_000_000,
        client_rate_bps=RATE,
        ticks_per_second=TICKS,
    )


def test_incast_requests():
    assert incast([8_000_000] * 3) == []
    assert incast([8_000_000] * 2), "a missing request must be rejected"
    assert incast([8_000_000, 7_999_999, 8_000_000]), "faster than the client link"


def stripes(requests, request_bytes=1000, fan_in=10):
    return checks.check_stripes(
        "incast", requests, request_bytes=request_bytes, fan_in=fan_in
    )


def test_stripes():
    whole = [[100] * 10]
    assert stripes(whole + whole) == ([], [])
    assert stripes(whole + [[100] * 9])[1], "a missing stripe must be rejected"
    assert stripes(whole + [[100] * 9 + [99]])[1], "a short stripe must be rejected"
    # 1003 B over 10 servers: the known fault drops the 3 B remainder.
    assert stripes([[100] * 10], request_bytes=1003) == ([0], [])
    # Only that exact shortfall is tolerated: half a request is an error.
    assert stripes([[50] * 10], request_bytes=1003) == ([], [
        "incast: the stripes of request 0 sum to 500 B, not 1003 B"
    ])
    assert stripes([[100] * 9 + [99]], request_bytes=1003)[1]


FAULTS = ["link_degrade@50us:l0-s1=0.1", "link_degrade@200us:l0-s1=1.0"]


def test_fault_log():
    logged = [(50_000, "LinkDegrade", False), (200_000, "LinkDegrade", True)]
    assert checks.check_fault_log("p", logged, FAULTS, 1_000_000) == []
    assert checks.check_fault_log("p", logged[:1], FAULTS, 1_000_000), "missing restore"
    # A run that ends before the restore must not log it, and must be
    # reported as never restoring.
    assert checks.check_fault_log("p", logged[:1], FAULTS, 100_000) == []
    assert checks.check_restores_inside("p", FAULTS, 100_000)
    assert checks.check_restores_inside("p", FAULTS, 1_000_000) == []


def test_fault_grammar():
    assert checks.expected_fault_log(["link_loss@1ms:s1-c0~0.0"], 10**9) == [
        (1_000_000, "LinkLoss", True)
    ]


def test_warm_pass():
    cold = {"baseline/ecmp/1": "aa", "leaf-brownout/caft/1": "bb"}
    assert checks.check_warm_pass("r", cold, dict(cold), [True, True]) == []
    assert checks.check_warm_pass("r", cold, {**cold, "baseline/ecmp/1": "ab"}, [True, True])
    assert checks.check_warm_pass("r", cold, dict(cold), [True, False])


CELLS = [{"tier": "leaf", "kind": "brownout"}, {"tier": "core", "kind": "blackhole"}]


def page(source: str, extra: str = "") -> str:
    return (
        "<!DOCTYPE html><html><head><style>p{color:#333}</style></head><body>"
        "<h2>Healthy baseline</h2><table>"
        f"<tr><td>ecmp</td><td>{source}</td></tr></table>"
        '<h2>Cell: leaf-brownout ×1</h2><svg xmlns="http://www.w3.org/2000/svg">'
        '<rect fill="#fff"/></svg><h2>Cell: core-blackhole ×1</h2>'
        f"{extra}</body></html>"
    )


def test_pages():
    assert checks.check_pages(page("run"), page("cache"), CELLS) == []
    assert checks.check_pages(page("run"), page("cache", "<p>x</p>"), CELLS)
    assert checks.check_pages(page("run"), page("run"), CELLS)
    assert checks.check_pages(page("run"), page("cache"), CELLS + [{"tier": "x", "kind": "y"}])


def test_page_with_external_reference_fails():
    for ref in (
        '<img src="https://example.org/a.png">',
        '<link rel="stylesheet" href="style.css">',
        "<style>body{background:url(http://example.org/b.png)}</style>",
        '<script src="app.js"></script>',
    ):
        assert checks.check_pages(page("run", ref), page("cache", ref), CELLS), ref


def fake_round(errors=(), digest="d0"):
    return run.RoundResult(
        {
            "marks": {"setup_end": 1.0, "sim_end": 2.0, "done": 3.0},
            "spans": {"import": [0.3], "apps.point": [0.5, 0.6]},
            "counts": {name: 10 for name in run.COUNTS},
            "extra": {},
            "ops": {"points": 2, "flows": 20, "requests": 0},
            "failed": {"points": 0, "flows": 0, "requests": 0},
            "known_faults": [],
            "errors": list(errors),
            "digests": {"anchor": digest},
            "simulated_events": 1000,
            "layers": {p: {"self_s": 0.1, "calls": 5} for p in run.PACKAGES},
        },
        launched=0.5,
        usage=type("Usage", (), {"ru_utime": 1.0, "ru_stime": 0.5, "ru_maxrss": 51200})(),
    )


def run_main(monkeypatch, capsys, rounds, trace=0):
    monkeypatch.setattr(run, "warm_up", lambda: None)
    feed = iter(rounds)
    monkeypatch.setattr(run, "run_round", lambda *a, **k: next(feed))
    code = run.main(
        ["--workload", "fct-conga-enterprise", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_run_reports_every_metric(monkeypatch, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    code, out = run_main(monkeypatch, capsys, [fake_round(), fake_round()])
    assert code == 0 and out["correct"] and out["attempted"] == 44
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    code, out = run_main(monkeypatch, capsys, [fake_round()] * 3, trace=1)
    assert code == 0
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    code, out = run_main(monkeypatch, capsys, [fake_round(), fake_round(["doctored"])])
    assert code == 1 and out["correct"] is False
    code, out = run_main(monkeypatch, capsys, [fake_round(), fake_round(digest="d1")])
    assert code == 1 and out["correct"] is False


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "incast-rto", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
